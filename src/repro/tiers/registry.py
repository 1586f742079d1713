"""The divergence-tier registry itself.

Tiers are consulted in ascending **rank** order; the first tier whose two
sides extracted different shapes names the inconsistency.  Ranks are
explicit (not list order) so precedence between tiers is a reviewed,
stable property: a more *specific* mechanism gets a lower rank and
therefore wins when one kernel exhibits several tiers' constructs at
once — a masked loop whose lanes also call a vector math library tags
``vec-libm``, not ``masked-lane``, deterministically.

Built-in ranks::

    10  vec-libm            vectorized math-library call sites
    20  mixed-precision     widened FpExt/FpTrunc conversion sites
    25  masked-int-guard    integer (iota/splat) guard masks
    30  masked-lane         if-converted (masked) lanes
    40  vector-reduction    horizontal-reduction shape alone

The two highest ranks reproduce the pre-registry precedence exactly
(masked shapes were checked before reduction shapes), so existing
campaigns replay byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.difftest.classify import (
    MASKED_LANE,
    VECTOR_REDUCTION,
    devectorized_fingerprint,
    masked_shape,
    vector_shape,
)
from repro.tiers.shapes import int_guard_shape, mixed_precision_shape, veclibm_shape
from repro.toolchains.cache import env_fingerprint, scalar_env_fingerprint

__all__ = [
    "DivergenceTier",
    "register",
    "registry",
    "tier_by_tag",
    "tier_tags",
    "shape_vector",
    "structural_tag",
    "structural_tag_from_shapes",
    "VEC_LIBM",
    "MIXED_PRECISION",
    "MASKED_INT_GUARD",
    "MASKED_LANE",
    "VECTOR_REDUCTION",
]

#: Structural kind: vectorized lanes resolved libm calls through a vector
#: math library (libmvec / SLEEF / SIMT intrinsics) that differs between
#: the sides.
VEC_LIBM = "vec-libm"

#: Structural kind: the vectorizer widened mixed-precision conversion
#: sites (``FpExt``/``FpTrunc``) whose composed reductions differ.
MIXED_PRECISION = "mixed-precision"

#: Structural kind: a trip-dependent *integer* guard widened into an
#: iota/splat mask and the guarded regions differ.
MASKED_INT_GUARD = "masked-int-guard"


@dataclass(frozen=True)
class DivergenceTier:
    """One divergence mechanism of the modeled vectorizing toolchains.

    Attributes:
        tag: the structural kind string — what
            :class:`~repro.difftest.record.ComparisonRecord.tag` carries,
            :func:`~repro.triage.signature.signature_of` folds into the
            triage signature, and the trigger corpus keys on.
        rank: explicit precedence; lower ranks are consulted first and
            should name more specific mechanisms.
        extract: ``(kernel, env) -> tuple`` — the structural shape whose
            per-side disagreement attributes an inconsistency to this
            tier.  Must return ``()`` when the kernel/environment exhibit
            none of the tier's constructs.
        policy_field: name of the
            :class:`~repro.toolchains.optlevels.TierPolicy` field that
            enables the tier for a (family, level, profile).
        description: one-line human summary for reports and docs.
    """

    tag: str
    rank: int
    extract: Callable
    policy_field: str
    description: str = ""


_REGISTRY: dict[str, DivergenceTier] = {}


def register(tier: DivergenceTier) -> DivergenceTier:
    """Add ``tier`` to the registry (tags and ranks must be unique)."""
    if tier.tag in _REGISTRY:
        raise ValueError(f"divergence tier {tier.tag!r} already registered")
    if any(t.rank == tier.rank for t in _REGISTRY.values()):
        raise ValueError(f"divergence-tier rank {tier.rank} already taken")
    _REGISTRY[tier.tag] = tier
    return tier


def registry() -> tuple[DivergenceTier, ...]:
    """All registered tiers in ascending rank (= precedence) order."""
    return tuple(sorted(_REGISTRY.values(), key=lambda t: t.rank))


def tier_by_tag(tag: str) -> DivergenceTier:
    return _REGISTRY[tag]


def tier_tags() -> tuple[str, ...]:
    """Every registered structural kind, precedence order."""
    return tuple(t.tag for t in registry())


def shape_vector(kernel, env=None) -> tuple[tuple, ...]:
    """Every tier's extracted shape for ``(kernel, env)``, registry order.

    :func:`structural_tag` computes this at most once per (kernel,
    environment) of a program, and only for pairs that can carry a tag.
    Shapes compare positionally — the vector is only meaningful against
    another vector extracted by the same registry state.
    """
    return tuple(t.extract(kernel, env) for t in registry())


def structural_tag_from_shapes(
    shapes_a: tuple[tuple, ...],
    shapes_b: tuple[tuple, ...],
    envs_equal: bool,
    scalar_parts_equal: bool,
) -> str | None:
    """The structural kind of one inconsistent comparison, or ``None``.

    Precondition for any tag: the sides' environments are observationally
    equal (scalar projection — a vec-libm difference is this registry's
    business, not a disqualifier) and their vector-stripped scalar parts
    are content-identical, so nothing but the vectorizing tiers can be
    the cause.  Then the lowest-ranked tier whose shapes differ wins.
    """
    if not envs_equal or not scalar_parts_equal:
        return None
    for tier, sa, sb in zip(registry(), shapes_a, shapes_b):
        if sa != sb:
            return tier.tag
    return None


def structural_tag(kernel_a, env_a, kernel_b, env_b, memo=None) -> str | None:
    """The structural kind of one inconsistent pair of binaries, or ``None``.

    Same verdict as :func:`structural_tag_from_shapes` over both sides'
    :func:`shape_vector`, but the evidence is computed lazily, cheapest
    first: the scalar environment keys, then the devectorized kernel
    fingerprints, and the tier shapes only for a pair that passed both
    preconditions — every pair that fails one tags ``None`` whatever its
    shapes.  The compare stage and the triage oracle both tag through
    here, so their verdicts cannot drift apart.

    ``memo`` is a dict shared by the calls of one program: fingerprints
    are keyed by ``id(kernel)`` and shapes by ``(id(kernel), environment
    content)``, so the memo must not outlive the kernels it has seen.  Its
    one intern table keys every devectorized statement of the program.
    """
    if scalar_env_fingerprint(env_a) != scalar_env_fingerprint(env_b):
        return None
    if memo is None:
        memo = {}

    def devec_fp(kernel) -> tuple[int, ...]:
        key = ("devec", id(kernel))
        if key not in memo:
            memo[key] = devectorized_fingerprint(kernel, memo.setdefault("intern", {}))
        return memo[key]

    def shapes(kernel, env) -> tuple[tuple, ...]:
        key = ("shapes", id(kernel), env_fingerprint(env))
        if key not in memo:
            memo[key] = shape_vector(kernel, env)
        return memo[key]

    if devec_fp(kernel_a) != devec_fp(kernel_b):
        return None
    return structural_tag_from_shapes(
        shapes(kernel_a, env_a), shapes(kernel_b, env_b), True, True
    )


register(
    DivergenceTier(
        tag=VEC_LIBM,
        rank=10,
        extract=veclibm_shape,
        policy_field="vec_libm",
        description="lanes resolve libm calls through a vector math library",
    )
)
register(
    DivergenceTier(
        tag=MIXED_PRECISION,
        rank=20,
        extract=mixed_precision_shape,
        policy_field="mixed_precision",
        description="widened FpExt/FpTrunc conversion sites feed reductions",
    )
)
register(
    DivergenceTier(
        tag=MASKED_INT_GUARD,
        rank=25,
        extract=int_guard_shape,
        policy_field="int_guards",
        description="integer trip guards widen into iota/splat masks",
    )
)
register(
    DivergenceTier(
        tag=MASKED_LANE,
        rank=30,
        extract=lambda kernel, env=None: masked_shape(kernel),
        policy_field="if_convert",
        description="if-converted lanes execute both arms and blend by mask",
    )
)
register(
    DivergenceTier(
        tag=VECTOR_REDUCTION,
        rank=40,
        extract=lambda kernel, env=None: vector_shape(kernel),
        policy_field="vector_width",
        description="horizontal-reduction shapes (width/style) differ",
    )
)
