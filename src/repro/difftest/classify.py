"""Inconsistency-kind classification (paper §3.3, RQ2).

An inconsistency between results ``r_i != r_j`` is labelled by the
unordered pair of their numerical categories in
{Real, Zero, +Inf, -Inf, NaN}; e.g. a real number vs. a zero counts once as
{Real, Zero}.  The eleven possible kinds are the x-axis of Figure 3.

Beyond the value-class taxonomy, the vectorization tier adds one
*structural* kind: :data:`VECTOR_REDUCTION` marks an inconsistent
comparison attributable to the vector tier *alone*.  Three conditions,
all deterministic functions of the two optimized kernels:

1. the sides reduce loops with **different vector shapes** (different
   widths / horizontal-reduction styles);
2. their FP environments are observationally equal (so the optimized IR
   is the only possible divergence source); and
3. stripped of every vector construct, the kernels are
   **content-identical** — the sides agree on all scalar code, so no
   other pass (reassociation, folding, contraction) can be the cause.

Without (3) a program that merely *contains* a vectorizable loop would
be mislabeled whenever an unrelated scalar transform (e.g. fast-math
reassociation of a straight-line sum) flips the comparison.  The tag is
precise by construction; triage bisection remains the ground truth for
*which* pass flipped a comparison.

The if-conversion tier adds a second structural kind,
:data:`MASKED_LANE`: the same environment/scalar-part preconditions,
but the sides differ in their *masked* shapes — mask sites
(``VecSelect``/``VecCmp``/masked load/store) or the reductions those
masked regions feed (:func:`masked_shape`).  Masked lanes execute both
arms of a converted conditional and blend by mask, so the divergent
association includes work the scalar branchy loop never did; the kind
takes precedence over plain ``vector-reduction`` because it names the
narrower mechanism, while sides that masked *identically* and diverge
only through an unmasked reduction's shape still tag
``vector-reduction``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from repro.fp.classify import CLASS_ORDER, FPClass, classify_double
from repro.ir import nodes as ir
from repro.toolchains.cache import kernel_fingerprint

__all__ = [
    "inconsistency_kind",
    "ALL_KINDS",
    "kind_label",
    "KindCount",
    "VECTOR_REDUCTION",
    "MASKED_LANE",
    "vector_shape",
    "masked_shape",
    "devectorized_body",
    "devectorized_fingerprint",
]

#: Structural inconsistency kind: the two sides disagree on how loop
#: reductions were vectorized (shape below), under equal environments.
VECTOR_REDUCTION = "vector-reduction"

#: Structural inconsistency kind: like ``vector-reduction``, but at least
#: one side widened *if-converted* (masked) code — speculated lanes
#: executed both arms of a conditional and blended by mask.
MASKED_LANE = "masked-lane"


def vector_shape(kernel: ir.Kernel) -> tuple[tuple[str, int, str], ...]:
    """The kernel's reduction shape: every :class:`~repro.ir.nodes.VecReduce`
    site as ``(op, lanes, style)``, in deterministic pre-order.

    Two optimized kernels with different shapes associate their reduction
    sums differently, so equal inputs can round to different results.
    """
    return tuple(
        (e.op, e.lanes, e.style) for e in ir.walk(kernel) if isinstance(e, ir.VecReduce)
    )


def masked_shape(kernel: ir.Kernel) -> tuple[tuple, ...]:
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


def _expr_has_vector(e: ir.Expr) -> bool:
    return any(isinstance(sub, ir.ANY_VECTOR_NODES) for sub in ir.walk(e))


def _stmt_has_vector(s: ir.Stmt) -> bool:
    for sub in ir.walk_stmts((s,)):
        if isinstance(sub, ir.SVecStore):
            return True
        if isinstance(sub, ir.SMaskedStore) and sub.lanes > 1:
            return True
        for top in ir.stmt_exprs(sub):
            if _expr_has_vector(top):
                return True
    return False


def devectorized_body(kernel: ir.Kernel) -> tuple[ir.Stmt, ...]:
    """The kernel's statements with every vector construct dropped.

    Vector-bearing leaf statements are removed; compound statements
    recurse, and a vector-bearing compound whose stripped bodies come
    out empty vanishes whole — for a vectorizer-emitted loop that is
    exactly the guarded vector block (lane inits, width-strided main
    loop, horizontal combines), leaving the hoisted induction init and
    the scalar epilogue, even when the vectorized loop sits nested
    inside source control flow.  The result is width- and
    style-independent, so two kernels that differ *only* in how the
    vector tier widened them strip to identical bodies.

    A surviving compound statement whose own *condition* contains vector
    nodes (a mask feeding control flow) has the condition scalarized to
    a constant placeholder: conditions belong to the statement, not its
    body, so leaving a width-carrying mask in place would make the
    stripped bodies of two widths spuriously differ and silently
    mis-tag.
    """

    return _strip(kernel.body)


def _scalarized(e: ir.Expr | None) -> ir.Expr | None:
    if e is None or not _expr_has_vector(e):
        return e
    return ir.IConst(1)


def _strip(stmts: tuple[ir.Stmt, ...]) -> tuple[ir.Stmt, ...]:
    """:func:`devectorized_body` of a statement sequence."""
    out: list[ir.Stmt] = []
    for s in stmts:
        if isinstance(s, ir.SIf):
            then, other = _strip(s.then), _strip(s.other)
            if then or other or not _stmt_has_vector(s):
                out.append(ir.SIf(_scalarized(s.cond), then, other))
        elif isinstance(s, ir.SFor):
            body = _strip(s.body)
            if body or not _stmt_has_vector(s):
                out.append(
                    ir.SFor(_strip(s.init), _scalarized(s.cond), _strip(s.step), body)
                )
        elif isinstance(s, ir.SWhile):
            body = _strip(s.body)
            if body or not _stmt_has_vector(s):
                out.append(ir.SWhile(_scalarized(s.cond), body))
        elif not _stmt_has_vector(s):
            out.append(s)
    return tuple(out)


def devectorized_fingerprint(kernel: ir.Kernel, table: dict) -> tuple[int, ...]:
    """:func:`devectorized_body`'s statements keyed in the intern ``table``
    (:func:`~repro.toolchains.cache.kernel_fingerprint`): two kernels'
    results are equal exactly when their devectorized bodies' ``repr``s are."""
    return tuple(kernel_fingerprint(s, table) for s in devectorized_body(kernel))


def inconsistency_kind(a: float, b: float) -> frozenset[FPClass]:
    """The unordered category pair of an inconsistent result pair."""
    return frozenset((classify_double(a), classify_double(b)))


def kind_label(kind: frozenset[FPClass]) -> str:
    """Human-readable label in the paper's Figure 3 ordering, e.g.
    '{Real, NaN}'."""
    members = sorted(kind, key=CLASS_ORDER.index)
    if len(members) == 1:
        members = members * 2
    return "{" + ", ".join(str(m) for m in members) + "}"


#: All unordered category pairs, in Figure 3 order: same-class pairs first
#: ({Real, Real}), then mixed pairs.
ALL_KINDS: tuple[frozenset[FPClass], ...] = tuple(
    frozenset(pair)
    for pair in combinations_with_replacement(CLASS_ORDER, 2)
)


@dataclass
class KindCount:
    """A tally of inconsistency kinds (one bar group of Figure 3)."""

    counts: Counter = field(default_factory=Counter)

    def record(self, a: float, b: float) -> None:
        self.counts[inconsistency_kind(a, b)] += 1

    def merge(self, other: "KindCount") -> None:
        self.counts.update(other.counts)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def get(self, *classes: FPClass) -> int:
        return self.counts.get(frozenset(classes), 0)

    def as_labels(self) -> dict[str, int]:
        """Nonzero kinds as {label: count}, Figure 3 ordering."""
        out: dict[str, int] = {}
        for kind in ALL_KINDS:
            n = self.counts.get(kind, 0)
            if n:
                out[kind_label(kind)] = n
        return out
