"""Simulated compiler toolchains: gcc/clang host models and the nvcc device model.

Each compiler is a pass pipeline + floating-point environment per
optimization level (Table 1 of the paper).  The default trio matches the
paper's setup: ``gcc`` 9.4 and ``clang`` 12.0 as host compilers, ``nvcc``
12.3 as the device compiler compiling the CUDA translation.
"""

from repro.toolchains.base import Binary, Compiler, CompilerKind
from repro.toolchains.cache import (
    env_fingerprint,
    kernel_fingerprint,
    scalar_env_fingerprint,
)
from repro.toolchains.optlevels import (
    ALL_LEVELS,
    TIER_PROFILES,
    OptLevel,
    TierPolicy,
    flags_for,
    tier_policy,
)
from repro.toolchains.gcc import GccCompiler
from repro.toolchains.clang import ClangCompiler
from repro.toolchains.nvcc import NvccCompiler
from repro.toolchains.system import SystemGcc, system_gcc_available

__all__ = [
    "Binary",
    "Compiler",
    "CompilerKind",
    "env_fingerprint",
    "kernel_fingerprint",
    "scalar_env_fingerprint",
    "OptLevel",
    "ALL_LEVELS",
    "TIER_PROFILES",
    "TierPolicy",
    "tier_policy",
    "flags_for",
    "GccCompiler",
    "ClangCompiler",
    "NvccCompiler",
    "SystemGcc",
    "system_gcc_available",
    "default_compilers",
]


def default_compilers(tiers: str = "baseline") -> list[Compiler]:
    """The paper's compiler set: gcc, clang (host) and nvcc (device).

    ``tiers`` selects the divergence-tier profile every member compiles
    under (see :func:`repro.toolchains.optlevels.tier_policy`).
    """
    return [GccCompiler(tiers=tiers), ClangCompiler(tiers=tiers), NvccCompiler(tiers=tiers)]
