"""The divergence tiers: one fixed table of structural tags.

A *divergence tier* is one mechanism by which the modeled vectorizing
toolchains make two observationally-equal binaries disagree: vectorized
math libraries, mixed-precision lane widening, integer guard masks,
masked (if-converted) lanes, and the plain vector-reduction
reassociation.  :data:`TIERS` lists each as ``(tag, extractor)`` in
precedence order: the **tag** is the kind string reports, triage and the
trigger corpus see, and the **shape extractor**
(:mod:`repro.tiers.shapes`) is the structural shape whose per-side
disagreement attributes an inconsistency to the tier.  Which tiers a
(compiler family, level, profile) engages is the separate
:func:`~repro.toolchains.optlevels.tier_policy` table.

The compare stage and the triage oracle both tag through
:func:`structural_tag`, which extracts shapes only for the pairs that can
carry a tag.
"""

from repro.tiers.registry import (
    TIERS,
    shape_vector,
    structural_tag,
    structural_tag_from_shapes,
)
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

__all__ = [
    "TIERS",
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
    "masked_shape",
    "vector_shape",
]
