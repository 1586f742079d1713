"""Content fingerprints of kernels and FP environments.

The engine shares one execution between the binaries of a program whose
optimized kernel and environment coincide (run sharing), the structural
tagger compares environments, and the corpus hashes environments into
its compiler-model fingerprint.  All need keys that address *content*,
never object identity:

* :func:`kernel_fingerprint` hashes the canonical ``repr`` of the frozen
  IR tree.  ``repr`` distinguishes ``-0.0`` from ``0.0`` (structural
  ``==`` would conflate them — a signed-zero print is observable) and
  collapses all NaN literals, matching the signature canonicalization.
* :func:`env_fingerprint` captures everything an
  :class:`~repro.fp.env.FPEnvironment` feeds into execution: precision,
  libm identity + perturbation parameters, FTZ and approx-unit flags.

Nothing here is cached across programs: a fingerprint is computed, used
as a dict key within one program and dropped with it.
"""

from __future__ import annotations

import hashlib

from repro.fp.env import FPEnvironment
from repro.ir import nodes as ir

__all__ = [
    "kernel_fingerprint",
    "env_fingerprint",
    "scalar_env_fingerprint",
]


def _libm_key(libm) -> tuple | None:
    if libm is None:
        return None
    return (
        type(libm).__name__,
        libm.name,
        getattr(libm, "max_ulps", None),
        getattr(libm, "perturb_prob", None),
        getattr(libm, "huge_trig_nan_prob", None),
    )


def kernel_fingerprint(kernel: ir.Kernel) -> str:
    """A stable content address for a lowered (or optimized) kernel.

    The IR is a tree of frozen dataclasses whose ``repr`` is canonical and
    deterministic, so hashing it addresses the kernel by *content*: two
    programs that lower to the same IR share one fingerprint regardless of
    where in the campaign they appeared.
    """
    return hashlib.sha256(repr(kernel).encode("utf-8")).hexdigest()


def env_fingerprint(env: FPEnvironment) -> tuple:
    """Content key of an FP environment (everything execution observes).

    Includes the vector math library: two binaries that differ only in
    their vec-libm binding execute differently, so they must not share
    a run.  The vec-libm element is appended only when one is bound, so
    environments without one fingerprint exactly as they did before the
    tier existed (the corpus model fingerprint hashes these — a baseline
    toolchain must not read as a new compiler model).
    """
    scalar = scalar_env_fingerprint(env)
    if env.veclibm is None:
        return scalar
    return scalar + (_libm_key(env.veclibm),)


def scalar_env_fingerprint(env: FPEnvironment) -> tuple:
    """The fingerprint's scalar projection — everything but the vec-libm.

    Structural-tag preconditions compare environments with this key:
    a vectorized-libm difference is exactly what the vec-libm *tier*
    reports, so it must not disqualify the pair from structural tagging
    the way a genuine scalar-semantics difference does.
    """
    return (
        env.precision.value,
        _libm_key(env.libm),
        env.ftz,
        env.approx_div,
        env.approx_sqrt,
        env._salt,
    )
