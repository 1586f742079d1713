"""Shape extractors of the newer divergence tiers.

Each extractor maps (optimized kernel, FP environment) to a deterministic
tuple; the compare stage attributes an inconsistency to the lowest-ranked
tier whose two sides extract *different* shapes (under the shared
preconditions — observationally equal environments, content-identical
vector-stripped scalar parts).  An extractor returns the empty tuple when
the kernel exhibits none of its tier's constructs, so a campaign compiled
without the tier (the ``baseline`` profile) sees equal empty shapes on
both sides and tags exactly as before the tier existed.

The legacy tiers' extractors —
:func:`~repro.difftest.classify.masked_shape` and
:func:`~repro.difftest.classify.vector_shape` — live in
:mod:`repro.difftest.classify`; the registry wraps them to this module's
uniform ``(kernel, env)`` signature.
"""

from __future__ import annotations

from repro.fp.env import FPEnvironment
from repro.ir import nodes as ir

__all__ = ["veclibm_shape", "mixed_precision_shape", "int_guard_shape"]


def veclibm_shape(kernel: ir.Kernel, env: FPEnvironment | None = None) -> tuple:
    """The kernel's vectorized-libm call sites under ``env``.

    Non-empty exactly when the environment links a vector math library
    *and* the kernel contains widened call sites: only then do lanes
    resolve through a different implementation than the scalar libm.
    The library's identity leads the shape, so two sides that widened the
    same calls to the same lanes but link different vector libraries
    (gcc's libmvec vs. clang's SLEEF build) still disagree.
    """
    if env is None or env.veclibm is None:
        return ()
    sites = tuple(
        ("call", e.name, e.lanes, e.ty)
        for e in ir.walk(kernel)
        if isinstance(e, ir.VecCall)
    )
    if not sites:
        return ()
    lib = env.veclibm
    return (("lib", type(lib).__name__, lib.name),) + sites


def mixed_precision_shape(kernel: ir.Kernel, env: FPEnvironment | None = None) -> tuple:
    """The kernel's widened conversion sites plus the reductions they feed.

    Non-empty exactly when the vectorizer widened ``FpExt``/``FpTrunc``
    sites (the mixed-precision tier).  The kernel's reduction sites ride
    along because a mixed-precision loop body usually feeds a reduction,
    and the horizontal style is what actually distinguishes two hosts
    that widened the same conversions at the same width.
    """
    mixed: list[tuple] = []
    reduces: list[tuple] = []
    for e in ir.walk(kernel):
        if isinstance(e, ir.VecFpExt):
            mixed.append(("ext", e.lanes))
        elif isinstance(e, ir.VecFpTrunc):
            mixed.append(("trunc", e.lanes))
        elif isinstance(e, ir.VecReduce):
            reduces.append(("reduce", e.op, e.lanes, e.style))
    if not mixed:
        return ()
    return tuple(mixed) + tuple(reduces)


def int_guard_shape(kernel: ir.Kernel, env: FPEnvironment | None = None) -> tuple:
    """The kernel's widened *integer* guard masks and the masked region.

    Non-empty exactly when a lane compare's operands are integers (an
    iota/splat mask from a trip-dependent guard like ``if (i < m)`` — the
    int-guards tier); floating-point lane compares belong to the plain
    masked-lane tier.  The full masked shape rides along so two sides
    that built the same integer mask still disagree when the guarded
    region's reductions differ in style or width.
    """
    from repro.difftest.classify import masked_shape

    icmps = tuple(
        ("icmp", e.op, e.lanes)
        for e in ir.walk(kernel)
        if isinstance(e, ir.VecCmp) and ir.expr_type(e.left) == "int"
    )
    if not icmps:
        return ()
    return icmps + masked_shape(kernel)
