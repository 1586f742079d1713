"""Inconsistency-kind classification (paper §3.3, RQ2).

An inconsistency between results ``r_i != r_j`` is labelled by the
unordered pair of their numerical categories in
{Real, Zero, +Inf, -Inf, NaN}; e.g. a real number vs. a zero counts once as
{Real, Zero}.  The eleven possible kinds are the x-axis of Figure 3.

Beyond the value-class taxonomy, an inconsistent comparison may carry a
*structural* kind, a divergence-tier tag (:mod:`repro.tiers`).  A tag
needs the two sides' kernels to be content-identical once every vector
construct is stripped (:func:`devectorized_body`): the sides then agree
on all scalar code, so no other pass (reassociation, folding,
contraction) can be the cause.  Without that precondition a program that
merely *contains* a vectorizable loop would be mislabeled whenever an
unrelated scalar transform (e.g. fast-math reassociation of a
straight-line sum) flips the comparison.  Triage bisection remains the
ground truth for *which* pass flipped a comparison.
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
    "devectorized_body",
    "devectorized_fingerprint",
]


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
