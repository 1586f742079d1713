"""Optimization levels and their command-line flags (paper Table 1)."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OptLevel(enum.Enum):
    """The six levels of the paper's evaluation, in ascending aggressiveness.

    ``O0_NOFMA`` is the most IEEE-compliant configuration (``-O0`` with FMA
    contraction explicitly disabled) and serves as the RQ4 baseline;
    ``O3_FASTMATH`` trades IEEE compliance for speed.
    """

    O0_NOFMA = "O0_nofma"
    O0 = "O0"
    O1 = "O1"
    O2 = "O2"
    O3 = "O3"
    O3_FASTMATH = "O3_fastmath"

    def __str__(self) -> str:
        return self.value


#: All levels in Table 1 order.
ALL_LEVELS: tuple[OptLevel, ...] = (
    OptLevel.O0_NOFMA,
    OptLevel.O0,
    OptLevel.O1,
    OptLevel.O2,
    OptLevel.O3,
    OptLevel.O3_FASTMATH,
)

_HOST_FLAGS = {
    OptLevel.O0_NOFMA: "-O0 -ffp-contract=off",
    OptLevel.O0: "-O0",
    OptLevel.O1: "-O1",
    OptLevel.O2: "-O2",
    OptLevel.O3: "-O3",
    OptLevel.O3_FASTMATH: "-O3 -ffast-math",
}

_NVCC_FLAGS = {
    OptLevel.O0_NOFMA: "-O0 --fmad=false",
    OptLevel.O0: "-O0",
    OptLevel.O1: "-O1",
    OptLevel.O2: "-O2",
    OptLevel.O3: "-O3",
    OptLevel.O3_FASTMATH: "-O3 --use_fast_math",
}


def flags_for(compiler_family: str, level: OptLevel) -> str:
    """Table 1: the flag string for a compiler family at a level."""
    if compiler_family in ("gcc", "clang"):
        return _HOST_FLAGS[level]
    if compiler_family == "nvcc":
        return _NVCC_FLAGS[level]
    raise KeyError(f"unknown compiler family {compiler_family!r}")


# -- the vectorization tier ----------------------------------------------------
#
# Modeled auto-vectorization widths (lanes) per family and level.  Host
# compilers engage the loop vectorizer from -O2 (128-bit vectors, 4 lanes)
# and widen to 8 lanes at -O3 and under fast math (256-bit vectors plus
# vectorizer-driven unrolling); nvcc models the CUDA translation's
# warp-level reduction — 32 lanes at every level except the explicit
# most-IEEE baseline O0_nofma, mirroring how only ``--fmad=false`` turns
# off its other aggressive default.  A width of 0 means "no vector tier
# at this level".

_HOST_VECTOR_WIDTHS = {
    OptLevel.O2: 4,
    OptLevel.O3: 8,
    OptLevel.O3_FASTMATH: 8,
}

#: nvcc's modeled warp width.
WARP_WIDTH = 32


# -- the if-conversion (masking) tier ------------------------------------------
#
# Whether the family's vectorizer if-converts conditional loop bodies
# (select-based masking) before widening.  Hosts model the cost-driven
# behaviour of gcc/clang: masked vectorization only at -O3 and under
# fast math, where the vectorizer's cost model stops being conservative
# about the blend overhead — at -O2 conditional bodies stay scalar
# branches.  The device model predicates at every level that vectorizes
# at all: GPU "branches" within a warp *are* predication (divergent
# lanes execute both sides under an active mask), a property of the
# machine rather than of an optimization level, so — like FMA
# contraction and the warp reduction itself — only the explicit
# most-IEEE baseline O0_nofma turns it off.

_HOST_IF_CONVERT_LEVELS = frozenset({OptLevel.O3, OptLevel.O3_FASTMATH})


# -- the per-compiler tier-policy table ----------------------------------------
#
# One :class:`TierPolicy` per (family, level, profile) answers every "does
# this toolchain engage tier X here?" question the pipelines and
# environments ask; which tag a divergence earns is the separate table
# in :mod:`repro.tiers`.  The ``baseline`` profile reproduces the
# pre-registry behaviour exactly —
# vector widths and if-conversion as above, no vector math library, no
# mixed-precision or integer-guard widening — so existing campaigns replay
# byte-identically.  The ``full`` profile additionally engages the newer
# tiers where the modeled toolchains would:
#
# * ``vec_libm`` — vectorized libm calls resolve through a per-family
#   vector math library (gcc: libmvec, clang: SLEEF-style, nvcc: SIMT
#   intrinsics).  Real host compilers only emit vector math calls under
#   fast math (gcc needs ``-ffast-math``/``-fno-math-errno`` to use
#   ``_ZGV`` symbols), so the tier engages at O3_FASTMATH only.
# * ``mixed_precision`` — ``FpExt``/``FpTrunc`` conversion sites widen
#   with the loop body instead of blocking vectorization; engages wherever
#   the vectorizer itself does.
# * ``int_guards`` — trip-dependent integer guards (``if (i < m)``) widen
#   into iota/splat masks; engages wherever if-conversion does.

#: Recognized tier profiles, least to most aggressive.
TIER_PROFILES: tuple[str, ...] = ("baseline", "full")


@dataclass(frozen=True)
class TierPolicy:
    """Divergence-tier enablement of one (family, level, profile)."""

    #: vectorizer lanes (0 = scalar only)
    vector_width: int = 0
    #: if-convert conditional bodies before widening
    if_convert: bool = False
    #: widen integer guard comparisons into iota/splat masks
    int_guards: bool = False
    #: link a vector math library for vectorized call sites
    vec_libm: bool = False
    #: widen FpExt/FpTrunc conversion sites (mixed-precision bodies)
    mixed_precision: bool = False


def tier_policy(
    compiler_family: str, level: OptLevel, profile: str = "baseline"
) -> TierPolicy:
    """The tier-policy table entry for ``compiler_family`` at ``level``."""
    if profile not in TIER_PROFILES:
        raise KeyError(f"unknown tier profile {profile!r}")
    if compiler_family in ("gcc", "clang"):
        width = _HOST_VECTOR_WIDTHS.get(level, 0)
        if_conv = bool(width) and level in _HOST_IF_CONVERT_LEVELS
    elif compiler_family == "nvcc":
        width = 0 if level is OptLevel.O0_NOFMA else WARP_WIDTH
        if_conv = bool(width)
    else:
        raise KeyError(f"unknown compiler family {compiler_family!r}")
    if profile == "baseline" or not width:
        return TierPolicy(vector_width=width, if_convert=if_conv)
    return TierPolicy(
        vector_width=width,
        if_convert=if_conv,
        int_guards=if_conv,
        vec_libm=level is OptLevel.O3_FASTMATH,
        mixed_precision=True,
    )
