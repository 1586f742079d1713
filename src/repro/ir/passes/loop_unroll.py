"""Loop unrolling: the scalar half of the vectorization tier.

``LoopUnroll(factor=k)`` rewrites an innermost counted loop

    for (i = L; i < B; ++i) { body(i); }

into a stride-``k`` main loop whose body is ``k`` substituted copies
(``body(i); body(i+1); ... body(i+k-1)``) followed by a scalar epilogue
loop for the remaining trips.  Unrolling alone is **semantics-preserving**
— every FP operation still executes in the original order with the
original operands — which is why triage bisection attributes a
vector-reduction flip to ``vectorize``, never to ``loop-unroll``: the
unrolled prefix replays bit-identically.  It runs *after*
:class:`~repro.ir.passes.vectorize.Vectorize` in the host pipelines and
unrolls the loops that stayed scalar; the loops the vectorizer emits have
no ``init`` statement, so :func:`match_counted_loop` never matches them.

Modeling notes:

* Only innermost, straight-line counted loops unroll; loops containing
  branches, prints or nested loops are left alone.
* The main-loop guard evaluates ``i + (k-1) < B``.  For bounds within
  ``k`` of ``INT_MAX`` that addition would overflow (a trap in this
  interpreter); generated programs bound trips at tens, so the corner is
  documented rather than guarded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir import nodes as ir
from repro.ir.passes.base import Pass, rebuild_expr

__all__ = ["LoopUnroll", "CountedLoop", "match_counted_loop", "substitute_induction"]


@dataclass(frozen=True)
class CountedLoop:
    """A recognized ``for (i = ...; i [+g] < bound; i += stride)`` loop."""

    var: str  # induction variable (an int scalar)
    init: tuple[ir.Stmt, ...]  # the original init statements
    bound: ir.Expr  # loop-invariant upper bound
    stride: int  # induction increment per iteration
    guard_offset: int  # g in ``i + g < bound`` (0 for a source loop)
    body: tuple[ir.Stmt, ...]
    cond: ir.Expr
    step: tuple[ir.Stmt, ...]


def match_counted_loop(s: ir.Stmt) -> CountedLoop | None:
    """Recognize the canonical counted loop produced by lowering.

    Requirements: one ``init`` statement assigning an int induction
    variable, a ``<`` condition against a loop-invariant bound (an int
    constant, or an int variable assigned nowhere in the body/step), a
    single step ``i += stride``, and a body that never writes ``i``.
    Returns ``None`` for anything else.  The ``i + g < bound`` condition
    shape (with ``g == stride - 1``) matches loops already unrolled by
    :class:`LoopUnroll`; callers that only transform source loops reject
    a ``stride`` or ``guard_offset`` other than ``1`` and ``0``.
    """
    if not isinstance(s, ir.SFor) or s.cond is None:
        return None
    if len(s.init) != 1 or len(s.step) != 1:
        return None
    init = s.init[0]
    if not isinstance(init, ir.SAssign) or init.ty != "int":
        return None
    var = init.name
    step = s.step[0]
    if not (
        isinstance(step, ir.SAssign)
        and step.name == var
        and isinstance(step.value, ir.IBin)
        and step.value.op == "+"
        and isinstance(step.value.left, ir.Load)
        and step.value.left.name == var
        and isinstance(step.value.right, ir.IConst)
        and step.value.right.value >= 1
    ):
        return None
    stride = step.value.right.value
    cond = s.cond
    if not (isinstance(cond, ir.Compare) and cond.op == "<" and not cond.fp):
        return None
    left, bound = cond.left, cond.right
    if isinstance(left, ir.Load) and left.name == var:
        guard_offset = 0
    elif (
        isinstance(left, ir.IBin)
        and left.op == "+"
        and isinstance(left.left, ir.Load)
        and left.left.name == var
        and isinstance(left.right, ir.IConst)
    ):
        guard_offset = left.right.value
    else:
        return None
    assigned = ir.assigned_names(s.body)
    if var in assigned:
        return None
    if isinstance(bound, ir.Load):
        if bound.ty != "int" or bound.name == var or bound.name in assigned:
            return None
    elif not isinstance(bound, ir.IConst):
        return None
    return CountedLoop(
        var=var,
        init=s.init,
        bound=bound,
        stride=stride,
        guard_offset=guard_offset,
        body=s.body,
        cond=cond,
        step=s.step,
    )


def substitute_induction(s: ir.Stmt, var: str, offset: int) -> ir.Stmt:
    """``s`` with every read of ``var`` replaced by ``var + offset``."""
    if offset == 0:
        return s

    def sub(e: ir.Expr) -> ir.Expr:
        if isinstance(e, ir.Load) and e.name == var:
            return ir.IBin("+", e, ir.IConst(offset))
        return e

    if not isinstance(s, (ir.SAssign, ir.SStoreElem, ir.SPrint)):
        raise ValueError(f"cannot substitute into {type(s).__name__}")
    return ir.map_children(s, lambda e: rebuild_expr(e, sub))


def _straight_line(stmts: tuple[ir.Stmt, ...]) -> bool:
    """Only plain assignments and element stores (what unrolling copies)."""
    return all(isinstance(s, (ir.SAssign, ir.SStoreElem)) for s in stmts)


class LoopUnroll(Pass):
    """Unroll innermost straight-line counted loops by a fixed factor.

    >>> from repro.ir.passes.loop_unroll import LoopUnroll
    >>> LoopUnroll(4).name
    'loop-unroll'
    """

    name = "loop-unroll"

    def __init__(self, factor: int = 4) -> None:
        if factor < 2:
            raise ValueError("unroll factor must be >= 2")
        self.factor = factor

    def run(self, kernel: ir.Kernel) -> ir.Kernel:
        return ir.splice(kernel, self._loop)

    def _loop(self, s: ir.Stmt) -> list[ir.Stmt] | None:
        """The unrolled main loop and its scalar epilogue, else ``None``."""
        loop = match_counted_loop(s)
        if (
            loop is None
            or loop.stride != 1
            or loop.guard_offset != 0
            or not loop.body
            or not _straight_line(loop.body)
        ):
            return None
        k = self.factor
        var = loop.var
        unrolled = tuple(
            substitute_induction(stmt, var, j) for j in range(k) for stmt in loop.body
        )
        main = ir.SFor(
            init=loop.init,
            cond=ir.Compare(
                "<",
                ir.IBin("+", ir.Load(var, "int"), ir.IConst(k - 1)),
                loop.bound,
                fp=False,
            ),
            step=(
                ir.SAssign(
                    var, ir.IBin("+", ir.Load(var, "int"), ir.IConst(k)), "int"
                ),
            ),
            body=unrolled,
        )
        epilogue = ir.SFor(init=(), cond=loop.cond, step=loop.step, body=loop.body)
        return [main, epilogue]
