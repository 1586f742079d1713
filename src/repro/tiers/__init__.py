"""The pluggable divergence-tier registry.

A *divergence tier* is one mechanism by which the modeled vectorizing
toolchains make two observationally-equal binaries disagree: the plain
vector-reduction reassociation, masked (if-converted) lanes, integer
guard masks, mixed-precision lane widening, vectorized math libraries.
Each tier is described once, as a :class:`DivergenceTier` bundling

* its structural **tag** (the kind string reports, triage and the trigger
  corpus see) and an explicit precedence **rank**;
* the **shape extractor** whose per-side disagreement attributes an
  inconsistency to the tier;
* the name of the :class:`~repro.toolchains.optlevels.TierPolicy` field
  that **enables** the tier per (compiler family, level, profile).

The compare stage, the triage oracle and clusterer, and the store
iterate :func:`registry` instead of hard-coding individual tags, so
landing a new tier is one :func:`register` call.  Both the compare stage
and the triage oracle tag through :func:`structural_tag`, which extracts
shapes only for the pairs that can carry a tag.
"""

from repro.tiers.registry import (
    MASKED_INT_GUARD,
    MASKED_LANE,
    MIXED_PRECISION,
    VEC_LIBM,
    VECTOR_REDUCTION,
    DivergenceTier,
    register,
    registry,
    shape_vector,
    structural_tag,
    structural_tag_from_shapes,
    tier_by_tag,
    tier_tags,
)
from repro.tiers.shapes import (
    int_guard_shape,
    mixed_precision_shape,
    veclibm_shape,
)

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
    "veclibm_shape",
    "mixed_precision_shape",
    "int_guard_shape",
]
