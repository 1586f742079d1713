"""The divergence-tier table and the structural tag of one pair.

:data:`TIERS` lists every tier as ``(tag, extractor)`` in precedence
order; the first tier whose two sides extracted different shapes names
the inconsistency.  A more *specific* mechanism comes first and therefore
wins when one kernel exhibits several tiers' constructs at once — a
masked loop whose lanes also call a vector math library tags
``vec-libm``, not ``masked-lane``, deterministically.  The last two
entries keep the original precedence (masked shapes are checked before
reduction shapes), so baseline campaigns replay byte-identically.
"""

from __future__ import annotations

from repro.difftest.classify import devectorized_fingerprint
from repro.tiers.shapes import (
    MASKED_INT_GUARD,
    MASKED_LANE,
    MIXED_PRECISION,
    VEC_LIBM,
    VECTOR_REDUCTION,
    int_guard_shape,
    masked_shape,
    mixed_precision_shape,
    veclibm_shape,
    vector_shape,
)
from repro.toolchains.cache import env_fingerprint, scalar_env_fingerprint

__all__ = ["TIERS", "shape_vector", "structural_tag", "structural_tag_from_shapes"]

#: Every divergence tier as ``(tag, extractor)``, in precedence order.
#: An extractor maps ``(kernel, env)`` to the tier's structural shape,
#: ``()`` when the kernel exhibits none of the tier's constructs.
TIERS = (
    (VEC_LIBM, veclibm_shape),
    (MIXED_PRECISION, mixed_precision_shape),
    (MASKED_INT_GUARD, int_guard_shape),
    (MASKED_LANE, masked_shape),
    (VECTOR_REDUCTION, vector_shape),
)


def shape_vector(kernel, env=None) -> tuple[tuple, ...]:
    """Every tier's extracted shape for ``(kernel, env)``, :data:`TIERS` order.

    :func:`structural_tag` computes this at most once per (kernel,
    environment) of a program, and only for pairs that can carry a tag.
    """
    return tuple(extract(kernel, env) for _, extract in TIERS)


def structural_tag_from_shapes(
    shapes_a: tuple[tuple, ...], shapes_b: tuple[tuple, ...]
) -> str | None:
    """The first tier whose two :func:`shape_vector` entries differ, or
    ``None``.  Only meaningful for a pair that passed
    :func:`structural_tag`'s preconditions."""
    for (tag, _), sa, sb in zip(TIERS, shapes_a, shapes_b):
        if sa != sb:
            return tag
    return None


def structural_tag(kernel_a, env_a, kernel_b, env_b, memo=None) -> str | None:
    """The structural kind of one inconsistent pair of binaries, or ``None``.

    Precondition for any tag: the sides' environments are observationally
    equal (scalar projection — a vec-libm difference is a tier's business,
    not a disqualifier) and their vector-stripped scalar parts are
    content-identical, so nothing but the vectorizing tiers can be the
    cause.  Then :func:`structural_tag_from_shapes` over both sides'
    :func:`shape_vector` names the tier.  The evidence is computed lazily,
    cheapest first: the scalar environment keys, then the devectorized
    kernel fingerprints, and the tier shapes only for a pair that passed
    both preconditions.  The compare stage and the triage oracle both tag
    through here, so their verdicts cannot drift apart.

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
    return structural_tag_from_shapes(shapes(kernel_a, env_a), shapes(kernel_b, env_b))
