"""If-conversion: conditional loop bodies rewritten into select form.

``IfConvert`` rewrites each :class:`~repro.ir.nodes.SIf` inside an
*innermost counted loop* into straight-line predicated statements so the
vectorizer can widen the loop:

* a scalar assignment per variable either arm writes —
  ``x = Select(cond, then_value, else_value)`` (a missing arm keeps the
  old value); when both arms are accumulations of the same operator
  (``x = x op E``), the accumulator is factored out as
  ``x = x op Select(cond, E_then, E_else)`` with the operator's identity
  filling an absent arm, which is exactly the reduction shape
  :class:`~repro.ir.passes.vectorize.Vectorize` recognizes;
* a store appearing in **both** arms at the same index becomes one store
  of a select; a store in only one arm becomes the predicated
  :class:`~repro.ir.nodes.SMaskedStore` (scalar width), the maskable
  form the vectorizer widens into a true masked vector store.

The scalar rewrite is **semantics-preserving**: scalar ``Select``
short-circuits and the scalar masked store predicates the whole access,
so every FP operation, trap and memory write of the original branchy
loop replays bit-identically — like ``loop-unroll``, this pass only
*enables*.  The observable lives downstream: once ``Vectorize(masked=True)``
widens the select form, every lane evaluates **both** arms and blends by
mask, manufacturing rounding sequences (and, under fast math, values)
the branchy scalar loop never computes.

Refusals mirror real if-converters: nested loops or further ``SIf``
nesting inside an arm, side exits (``return``/``print``), arms whose
expressions read a variable the conversion itself assigns (RAW hazards a
blend cannot express), stores the two arms disagree on, and conditions
that read converted state.  Anything refused simply stays a branch — and
therefore stays scalar.
"""

from __future__ import annotations

from operator import is_

from repro.ir import nodes as ir
from repro.ir.passes.base import Pass
from repro.ir.passes.loop_unroll import match_counted_loop

__all__ = ["IfConvert"]

#: Accumulation operators with the identity used for an absent arm.
_ACC_IDENTITY = {"+": 0.0, "-": 0.0, "*": 1.0, "/": 1.0}


def _reads_array(e: ir.Expr, names: set[str]) -> bool:
    return any(
        isinstance(sub, ir.LoadElem) and sub.name in names for sub in ir.walk(e)
    )


class IfConvert(Pass):
    """Convert conditional bodies of innermost counted loops to select form.

    >>> from repro.ir.passes.if_convert import IfConvert
    >>> IfConvert().name
    'if-convert'
    """

    name = "if-convert"

    def run(self, kernel: ir.Kernel) -> ir.Kernel:
        return ir.splice(kernel, self._loop)

    def _loop(self, s: ir.Stmt) -> tuple[ir.Stmt, ...] | None:
        """The converted form of an innermost counted loop, else ``None``."""
        if not isinstance(s, ir.SFor) or match_counted_loop(s) is None:
            return None
        if any(isinstance(sub, (ir.SFor, ir.SWhile)) for sub in ir.walk_stmts(s.body)):
            return None
        body: list[ir.Stmt] = []
        for st in s.body:
            converted = self._convert(st) if isinstance(st, ir.SIf) else None
            body.extend((st,) if converted is None else converted)
        if len(body) == len(s.body) and all(map(is_, body, s.body)):
            return (s,)
        return (ir.SFor(s.init, s.cond, s.step, tuple(body)),)

    # -- one conditional ---------------------------------------------------------

    def _convert(self, s: ir.SIf) -> list[ir.Stmt] | None:
        """The select form of one two-armed conditional, or ``None``."""
        arms = []
        for arm in (s.then, s.other):
            assigns: dict[str, ir.SAssign] = {}
            stores: dict[str, ir.SStoreElem] = {}
            for st in arm:
                if isinstance(st, ir.SAssign):
                    if st.name in assigns:
                        return None  # double write: order-dependent
                    assigns[st.name] = st
                elif isinstance(st, ir.SStoreElem):
                    if st.name in stores:
                        return None
                    stores[st.name] = st
                else:
                    return None  # nested control flow or side exit
            arms.append((assigns, stores))
        (then_a, then_s), (else_a, else_s) = arms

        assigned = set(then_a) | set(else_a)
        stored = set(then_s) | set(else_s)
        # The blend evaluates everything against pre-conditional state.
        # Two reads stay safe by evaluation order and are allowed: an
        # assignment reading its own target (the select evaluates before
        # the write, like the original statement), and a store's
        # condition/index/value reading the store's *own* array (scalar
        # and vector masked stores read everything before writing).  The
        # condition may read a stored array only while a single store
        # re-evaluates it: scalar assignments emit first, so every
        # evaluation before that last store still sees pre-store memory,
        # exactly like the original's single entry evaluation.
        if ir.reads_scalar(s.cond, assigned):
            return None
        if len(stored) > 1 and _reads_array(s.cond, stored):
            return None
        for name, st in (*then_a.items(), *else_a.items()):
            if ir.reads_scalar(st.value, assigned - {name}) or _reads_array(
                st.value, stored
            ):
                return None
        for st in (*then_s.values(), *else_s.values()):
            for e in (st.index, st.value):
                if ir.reads_scalar(e, assigned) or _reads_array(
                    e, stored - {st.name}
                ):
                    return None

        out: list[ir.Stmt] = []
        seen: set[str] = set()
        for name in (*then_a, *else_a):
            if name in seen:
                continue
            seen.add(name)
            out.append(self._blend_assign(s.cond, then_a.get(name), else_a.get(name)))
        for name in (*then_s, *else_s):
            if name in seen:
                continue
            seen.add(name)
            converted = self._blend_store(
                s.cond, then_s.get(name), else_s.get(name)
            )
            if converted is None:
                return None
            out.append(converted)
        return out

    @staticmethod
    def _blend_assign(
        cond: ir.Expr, then: ir.SAssign | None, other: ir.SAssign | None
    ) -> ir.SAssign:
        st = then if then is not None else other
        name, ty = st.name, st.ty

        def acc_term(a: ir.SAssign | None) -> tuple[str, ir.Expr] | None:
            if a is None:
                return None
            v = a.value
            if (
                isinstance(v, ir.FBin)
                and v.op in _ACC_IDENTITY
                and isinstance(v.left, ir.Load)
                and v.left.name == name
                and not ir.reads_scalar(v.right, {name})
            ):
                return (v.op, v.right)
            return None

        t_acc, o_acc = acc_term(then), acc_term(other)
        ops = {a[0] for a in (t_acc, o_acc) if a is not None}
        every_present_arm_accumulates = (then is None or t_acc is not None) and (
            other is None or o_acc is not None
        )
        if len(ops) == 1 and every_present_arm_accumulates:
            # Every present arm accumulates with one operator: factor the
            # accumulator out so the loop stays a recognizable reduction.
            op = ops.pop()
            identity = ir.FConst(_ACC_IDENTITY[op], ty)
            t_term = t_acc[1] if t_acc is not None else identity
            o_term = o_acc[1] if o_acc is not None else identity
            return ir.SAssign(
                name,
                ir.FBin(
                    op,
                    ir.Load(name, ty),
                    ir.Select(cond, t_term, o_term, ty),
                    ty,
                ),
                ty,
            )
        keep = ir.Load(name, ty)
        t_val = then.value if then is not None else keep
        o_val = other.value if other is not None else keep
        return ir.SAssign(name, ir.Select(cond, t_val, o_val, ty), ty)

    @staticmethod
    def _blend_store(
        cond: ir.Expr, then: ir.SStoreElem | None, other: ir.SStoreElem | None
    ) -> ir.Stmt | None:
        if then is not None and other is not None:
            if then.index != other.index:
                return None  # arms write different elements: not a blend
            return ir.SStoreElem(
                then.name,
                then.index,
                ir.Select(cond, then.value, other.value, then.elem_ty),
                then.elem_ty,
            )
        st = then if then is not None else other
        mask = cond if then is not None else ir.Not(cond)
        return ir.SMaskedStore(st.name, st.index, mask, st.value, st.elem_ty, 1)
