"""The divergence tiers' tags and shape extractors.

Each extractor maps (optimized kernel, FP environment) to a deterministic
tuple; the compare stage attributes an inconsistency to the first tier in
:data:`~repro.tiers.registry.TIERS` whose two sides extract *different*
shapes (under the shared preconditions — observationally equal
environments, content-identical vector-stripped scalar parts).  An
extractor returns the empty tuple when the kernel exhibits none of its
tier's constructs, so a campaign compiled without the tier (the
``baseline`` profile) sees equal empty shapes on both sides and tags
exactly as before the tier existed.
"""

from __future__ import annotations

from repro.fp.env import FPEnvironment
from repro.ir import nodes as ir

__all__ = [
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

#: Structural kind: like ``vector-reduction``, but at least one side
#: widened *if-converted* (masked) code — speculated lanes executed both
#: arms of a conditional and blended by mask.
MASKED_LANE = "masked-lane"

#: Structural kind: the two sides disagree on how loop reductions were
#: vectorized (different widths / horizontal-reduction styles).
VECTOR_REDUCTION = "vector-reduction"


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
    icmps = tuple(
        ("icmp", e.op, e.lanes)
        for e in ir.walk(kernel)
        if isinstance(e, ir.VecCmp) and ir.expr_type(e.left) == "int"
    )
    if not icmps:
        return ()
    return icmps + masked_shape(kernel)


def masked_shape(kernel: ir.Kernel, env: FPEnvironment | None = None) -> tuple:
    """The kernel's if-conversion sites, in deterministic pre-order.

    Site descriptors: ``("cmp", op, lanes)`` for lane compares,
    ``("select", lanes)`` for blends, ``("mload", lanes)`` for masked
    loads, ``("mstore", lanes)`` for masked vector stores — and, inside
    a *masked region* (a guarded vector block whose subtree contains
    mask nodes), ``("reduce", op, lanes, style)`` for its horizontal
    reductions: a reduction fed by blended lanes belongs to the masking
    mechanism, while a reduction in an unmasked loop elsewhere in the
    same kernel stays out of this shape (so a pure reduction-style
    divergence next to an identically-masked loop tags
    ``vector-reduction``, not ``masked-lane``).

    Non-empty exactly when the kernel contains *widened* if-converted
    code (scalar select form, including the scalar epilogue the
    vectorizer emits, does not count: it executes one arm, not both).
    """
    shape: list[tuple] = []
    _masked_sites(kernel.body, shape)
    return tuple(shape)


def vector_shape(kernel: ir.Kernel, env: FPEnvironment | None = None) -> tuple:
    """The kernel's reduction shape: every :class:`~repro.ir.nodes.VecReduce`
    site as ``(op, lanes, style)``, in deterministic pre-order.

    Two optimized kernels with different shapes associate their reduction
    sums differently, so equal inputs can round to different results.
    """
    return tuple(
        (e.op, e.lanes, e.style) for e in ir.walk(kernel) if isinstance(e, ir.VecReduce)
    )


# The walkers below are module-level functions rather than recursive
# closures: a closure that calls itself reaches itself through its own
# cell, leaving a function<->cell cycle for the cyclic GC on every call.


def _leaf_sites(s: ir.Stmt, include_reduce: bool, shape: list[tuple]) -> None:
    if isinstance(s, ir.SMaskedStore) and s.lanes > 1:
        shape.append(("mstore", s.lanes))
    for top in ir.stmt_exprs(s):
        for e in ir.walk(top):
            if isinstance(e, ir.VecCmp):
                shape.append(("cmp", e.op, e.lanes))
            elif isinstance(e, ir.VecSelect):
                shape.append(("select", e.lanes))
            elif isinstance(e, ir.VecMaskedLoad):
                shape.append(("mload", e.lanes))
            elif include_reduce and isinstance(e, ir.VecReduce):
                shape.append(("reduce", e.op, e.lanes, e.style))


def _has_mask(s: ir.Stmt) -> bool:
    for sub in ir.walk_stmts((s,)):
        if isinstance(sub, ir.SMaskedStore) and sub.lanes > 1:
            return True
        for top in ir.stmt_exprs(sub):
            if any(
                isinstance(e, (ir.VecCmp, ir.VecSelect, ir.VecMaskedLoad))
                for e in ir.walk(top)
            ):
                return True
    return False


def _masked_sites(stmts: tuple[ir.Stmt, ...], shape: list[tuple]) -> None:
    """Append :func:`masked_shape`'s site descriptors for ``stmts``."""
    for s in stmts:
        if isinstance(s, ir.SIf) and _has_mask(s):
            # A masked vector region (the vectorizer's guard block):
            # consume it whole, reductions included.
            for sub in ir.walk_stmts((s,)):
                _leaf_sites(sub, True, shape)
        elif isinstance(s, ir.SIf):
            _leaf_sites(s, False, shape)  # own condition only
            _masked_sites(s.then, shape)
            _masked_sites(s.other, shape)
        elif isinstance(s, ir.SFor):
            _leaf_sites(s, False, shape)
            _masked_sites(s.init, shape)
            _masked_sites(s.body, shape)
            _masked_sites(s.step, shape)
        elif isinstance(s, ir.SWhile):
            _leaf_sites(s, False, shape)
            _masked_sites(s.body, shape)
        else:
            _leaf_sites(s, False, shape)
