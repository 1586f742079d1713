"""Auto-vectorization of innermost reduction and map loops.

``Vectorize(width=W)`` widens a counted loop

    for (i = L; i < B; ++i) { acc = acc + E(i);  a[i] = M(i); }

into the classic three-piece shape every auto-vectorizer emits:

1. a **runtime guard** — the vector body only runs while at least one
   full vector of trips remains (``i + (W-1) < B``), so short loops are
   bitwise-untouched;
2. a **vector main loop** — each reduction gets a private ``W``-lane
   partial accumulator (``acc__vW``) initialized to the identity and
   updated lane-wise; each map store becomes a unit-stride vector store;
3. a **horizontal reduction + scalar epilogue** — the lane partials
   collapse through a :class:`~repro.ir.nodes.VecReduce` of this
   compiler's ``style``, combine into the scalar accumulator, and the
   remaining ``B mod W`` trips run the original scalar body.

The *observable* of this tier is the reassociation in steps 2–3: a scalar
reduction folds strictly left (``((s+x0)+x1)+x2...``) while the vector
form sums every ``W``-th element per lane and then tree-reduces the
lanes.  Both are deterministic — each is a fixed association order
evaluated through the binary's FPEnvironment — but they round
differently, which is why vectorized sums bitwise-diverge from scalar
ones (and from each other across widths and reduction styles).  Map
stores, by contrast, are lane-wise identical to scalar execution and
introduce no divergence.

Pass order: the host pipelines vectorize first and then run
:class:`~repro.ir.passes.loop_unroll.LoopUnroll` with factor ``W`` over
what stayed scalar.  Only unit-stride source loops widen, and neither
loop this pass emits has an ``init`` statement, so the unroller never
matches vectorized output: ``unroll(W)`` after ``vectorize(W)`` leaves a
widened loop exactly as ``vectorize(W)`` built it — the pass-ordering
property the tests pin.

Masked (if-converted) tier: ``Vectorize(width, style, masked=True)``
additionally widens the select form
:class:`~repro.ir.passes.if_convert.IfConvert` produces.  A scalar
``Select`` becomes a :class:`~repro.ir.nodes.VecSelect` over a
:class:`~repro.ir.nodes.VecCmp` mask — **both** arms evaluate in every
lane, the blend only picks — and element loads inside an arm become
zero-masking :class:`~repro.ir.nodes.VecMaskedLoad` so speculation never
traps where the scalar guard would have skipped.  A scalar predicated
store (:class:`~repro.ir.nodes.SMaskedStore` at lanes=1) widens in place
to its vector form.  With ``masked=False`` (the default, and the host
behaviour below ``-O3``) all of these reject the loop, exactly as
before.
"""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.passes.base import Pass
from repro.ir.passes.loop_unroll import CountedLoop, match_counted_loop

__all__ = ["Vectorize"]

#: Reduction ops the vectorizer accepts, with their lane-accumulation op,
#: identity, horizontal-reduce op and scalar combine op.
_REDUCTIONS = {
    "+": ("+", 0.0, "+", "+"),
    "-": ("+", 0.0, "+", "-"),  # c -= e  ==>  c = c - sum(e)
    "*": ("*", 1.0, "*", "*"),
}


class _Reduction:
    """One recognized reduction statement ``acc = acc op E``."""

    __slots__ = ("acc", "op", "expr", "ty")

    def __init__(self, acc: str, op: str, expr: ir.Expr, ty: str) -> None:
        self.acc = acc
        self.op = op
        self.expr = expr
        self.ty = ty


class Vectorize(Pass):
    """Widening of innermost reduction/map loops.

    >>> from repro.ir.passes.vectorize import Vectorize
    >>> Vectorize(width=4, style="adjacent").name
    'vectorize'
    """

    name = "vectorize"

    def __init__(
        self,
        width: int = 4,
        style: str = "adjacent",
        masked: bool = False,
        int_guards: bool = False,
        mixed: bool = False,
    ) -> None:
        if width < 2:
            raise ValueError("vector width must be >= 2")
        if style not in ir.REDUCE_STYLES:
            raise ValueError(
                f"unknown reduce style {style!r}; expected one of {ir.REDUCE_STYLES}"
            )
        self.width = width
        self.style = style
        #: widen if-converted select forms (vs refusing them, the
        #: pre-masking behaviour kept for levels that do not if-convert)
        self.masked = masked
        #: also widen *integer* guard comparisons (``if (i < m)``) into
        #: iota/splat masks; off by default — the masked-int-guard tier
        self.int_guards = int_guards
        #: also widen ``FpExt``/``FpTrunc`` conversion sites, letting
        #: mixed float/double bodies vectorize; off by default — the
        #: mixed-precision tier
        self.mixed = mixed

    def run(self, kernel: ir.Kernel) -> ir.Kernel:
        # Variable names in use; lane accumulators must avoid them.  Kept
        # per run, not on the pass, so the pass stays a pure function of
        # its configuration (see Pass.key).
        taken = set(kernel.var_types) | ir.assigned_names(kernel.body)
        return ir.splice(kernel, lambda s: self._loop(s, taken))

    # -- recognition -------------------------------------------------------------

    def _loop(self, s: ir.Stmt, taken: set[str]) -> list[ir.Stmt] | None:
        loop = match_counted_loop(s)
        # Lanes ``i .. i+W-1`` assume a unit stride and an ``i < B`` bound.
        if loop is None or not loop.body or loop.stride != 1 or loop.guard_offset:
            return None
        plan = self._plan(loop)
        if plan is None:
            return None
        return self._emit(loop, plan, taken)

    def _plan(self, loop: CountedLoop) -> list[tuple[str, object]] | None:
        """Classify every body statement as a reduction or a map store."""
        accs: set[str] = set()
        plan: list[tuple[str, object]] = []
        for st in loop.body:
            if isinstance(st, ir.SAssign):
                red = self._as_reduction(st)
                if red is None or red.acc in accs or red.acc == loop.var:
                    return None
                accs.add(red.acc)
                plan.append(("reduce", red))
            elif isinstance(st, ir.SStoreElem):
                if not (
                    isinstance(st.index, ir.Load) and st.index.name == loop.var
                ):
                    return None
                plan.append(("map", st))
            elif self.masked and isinstance(st, ir.SMaskedStore) and st.lanes == 1:
                if not (
                    isinstance(st.index, ir.Load) and st.index.name == loop.var
                ):
                    return None
                plan.append(("masked-map", st))
            else:
                return None

        def payload_exprs(kind: str, payload) -> tuple[ir.Expr, ...]:
            if kind == "reduce":
                return (payload.expr,)
            if kind == "masked-map":
                return (payload.mask, payload.value)
            return (payload.value,)

        # Accumulators must be private to their own statement: any other
        # read (in a map value, another reduction's expression) blocks.
        for kind, payload in plan:
            for expr in payload_exprs(kind, payload):
                for e in ir.walk(expr):
                    if isinstance(e, ir.Load) and e.name in accs:
                        return None
        # The bound variable must not be stored through a vectorized map
        # (it is re-read by the loop condition).
        if isinstance(loop.bound, ir.Load):
            for kind, payload in plan:
                if kind in ("map", "masked-map") and payload.name == loop.bound.name:
                    return None
        # No loop-carried memory dependence: if the body stores to an
        # array, every read of that array must sit exactly at the store's
        # index ``i`` — an offset read (``a[i-1]``) would observe values a
        # previous scalar iteration wrote, which lanes executed together
        # cannot reproduce.  Real vectorizers reject this in dependence
        # analysis; so do we.
        stored = {
            payload.name for kind, payload in plan if kind in ("map", "masked-map")
        }
        if stored:
            for kind, payload in plan:
                for expr in payload_exprs(kind, payload):
                    for e in ir.walk(expr):
                        if isinstance(e, ir.LoadElem) and e.name in stored:
                            if not (
                                isinstance(e.index, ir.Load)
                                and e.index.name == loop.var
                            ):
                                return None
        # Every expression must widen.
        for kind, payload in plan:
            if kind == "masked-map":
                if self._widen_mask(payload.mask, loop.var) is None:
                    return None
                if (
                    self._widen(payload.value, loop.var, mask=(payload.mask, False))
                    is None
                ):
                    return None
            else:
                expr = payload.expr if kind == "reduce" else payload.value
                if self._widen(expr, loop.var) is None:
                    return None
        return plan

    def _as_reduction(self, st: ir.SAssign) -> _Reduction | None:
        v = st.value
        if not isinstance(v, ir.FBin) or v.op not in _REDUCTIONS or v.ty != st.ty:
            return None
        if st.ty not in ("float", "double"):
            return None
        left_is_acc = isinstance(v.left, ir.Load) and v.left.name == st.name
        right_is_acc = isinstance(v.right, ir.Load) and v.right.name == st.name
        if left_is_acc and not ir.reads_scalar(v.right, (st.name,)):
            return _Reduction(st.name, v.op, v.right, st.ty)
        if right_is_acc and v.op in ("+", "*") and not ir.reads_scalar(v.left, (st.name,)):
            return _Reduction(st.name, v.op, v.left, st.ty)
        return None

    # -- widening ----------------------------------------------------------------

    def _affine(self, e: ir.Expr, var: str) -> ir.Expr | None:
        """Unit-coefficient affine index in ``var``: returns the lane-0
        base expression, or None if ``e`` is not ``var (+/- invariant)``."""
        if isinstance(e, ir.Load) and e.name == var:
            return e
        if isinstance(e, ir.IBin) and e.op in ("+", "-"):
            li = ir.reads_scalar(e.left, (var,))
            ri = ir.reads_scalar(e.right, (var,))
            if li and not ri:
                base = self._affine(e.left, var)
                if base is None:
                    return None
                return ir.IBin(e.op, base, e.right)
            if ri and not li and e.op == "+":
                base = self._affine(e.right, var)
                if base is None:
                    return None
                return ir.IBin("+", e.left, base)
        return None

    def _widen_mask(self, cond: ir.Expr, var: str) -> ir.Expr | None:
        """The ``width``-lane predicate vector of a scalar condition.

        Floating comparisons whose operands widen are accepted — the
        shape if-conversion and source ternaries produce.  With
        ``int_guards`` enabled, *integer* comparisons widen too: an
        affine use of the induction variable steps per lane through
        :class:`~repro.ir.nodes.VecIota` and invariant int operands
        broadcast, so trip-count guards like ``if (i < m)`` if-convert.
        The operands are evaluated in every lane (a condition runs on
        every scalar trip too), so they widen without a mask context.
        """
        if not isinstance(cond, ir.Compare):
            return None
        if cond.fp:
            left = self._widen(cond.left, var)
            right = self._widen(cond.right, var)
        elif self.int_guards:
            left = self._widen_int(cond.left, var)
            right = self._widen_int(cond.right, var)
        else:
            return None
        if left is None or right is None:
            return None
        return ir.VecCmp(cond.op, left, right, self.width)

    def _widen_int(self, e: ir.Expr, var: str) -> ir.Expr | None:
        """The lane form of an *integer* guard operand (int-guards tier):
        loop-invariant ints broadcast, affine uses of the induction
        variable become iota vectors, everything else rejects."""
        if not ir.reads_scalar(e, (var,)):
            if isinstance(e, ir.ANY_VECTOR_NODES) or ir.expr_type(e) != "int":
                return None
            return ir.VecSplat(e, self.width, "int")
        base = self._affine(e, var)
        if base is None:
            return None
        return ir.VecIota(base, self.width)

    def _widen(
        self,
        e: ir.Expr,
        var: str,
        mask: tuple[ir.Expr, bool] | None = None,
    ) -> ir.Expr | None:
        """Rewrite a scalar body expression into its ``width``-lane form.

        Loop-invariant subtrees broadcast (:class:`~repro.ir.nodes.VecSplat`),
        unit-stride element reads become :class:`~repro.ir.nodes.VecLoad`,
        and uses of the induction variable step per lane through
        :class:`~repro.ir.nodes.VecIota`.  When ``masked`` is enabled, a
        ``Select`` widens to a mask blend whose arms carry ``mask`` — the
        governing ``(condition, inverted)`` context — down to their
        element reads, which become zero-masking
        :class:`~repro.ir.nodes.VecMaskedLoad` (the arm is speculated;
        its loads must not trap in lanes the scalar guard skipped).
        Anything else (non-affine indices, already-vector nodes, nested
        selects) rejects the loop.
        """
        w = self.width
        if not ir.reads_scalar(e, (var,)):
            # Loop-invariant: broadcast the whole subtree unwidened.  Only
            # valid for scalar expressions of known element type.  Inside
            # a masked arm the broadcast still evaluates once per vector
            # trip — invariant speculation, like a hoisted load.
            if isinstance(e, ir.ANY_VECTOR_NODES):
                return None
            ty = ir.expr_type(e)
            if ty == "int":
                return None
            return ir.VecSplat(e, w, ty)
        if isinstance(e, ir.LoadElem):
            base = self._affine(e.index, var)
            if base is None:
                return None
            if mask is None:
                return ir.VecLoad(e.name, base, w, e.ty)
            lane_mask = self._widen_mask(mask[0], var)
            if lane_mask is None:
                return None
            return ir.VecMaskedLoad(e.name, base, lane_mask, w, e.ty, mask[1])
        if isinstance(e, ir.SiToFp):
            base = self._affine(e.operand, var)
            if base is None:
                return None
            return ir.VecSiToFp(ir.VecIota(base, w), w, e.ty)
        if isinstance(e, ir.FBin):
            left = self._widen(e.left, var, mask)
            right = self._widen(e.right, var, mask)
            if left is None or right is None:
                return None
            return ir.VecBin(e.op, left, right, w, e.ty)
        if isinstance(e, ir.FNeg):
            inner = self._widen(e.operand, var, mask)
            if inner is None:
                return None
            return ir.VecNeg(inner, w, e.ty)
        if isinstance(e, ir.Fma):
            a = self._widen(e.a, var, mask)
            b = self._widen(e.b, var, mask)
            c = self._widen(e.c, var, mask)
            if a is None or b is None or c is None:
                return None
            return ir.VecFma(a, b, c, w, e.ty)
        if isinstance(e, ir.FCall):
            args = [self._widen(a, var, mask) for a in e.args]
            if any(a is None for a in args):
                return None
            return ir.VecCall(e.name, tuple(args), w, e.ty)
        if isinstance(e, (ir.FpExt, ir.FpTrunc)) and self.mixed:
            inner = self._widen(e.operand, var, mask)
            if inner is None:
                return None
            cls = ir.VecFpExt if isinstance(e, ir.FpExt) else ir.VecFpTrunc
            return cls(inner, w)
        if isinstance(e, ir.Select) and self.masked and mask is None:
            lane_mask = self._widen_mask(e.cond, var)
            if lane_mask is None:
                return None
            then = self._widen(e.then, var, mask=(e.cond, False))
            other = self._widen(e.other, var, mask=(e.cond, True))
            if then is None or other is None:
                return None
            return ir.VecSelect(lane_mask, then, other, w, e.ty)
        return None

    # -- emission ----------------------------------------------------------------

    def _lane_var(self, acc: str, taken: set[str]) -> str:
        base = f"{acc}__v{self.width}"
        name = base
        n = 1
        while name in taken:
            n += 1
            name = f"{base}_{n}"
        taken.add(name)
        return name

    def _emit(
        self, loop: CountedLoop, plan: list[tuple[str, object]], taken: set[str]
    ) -> list[ir.Stmt]:
        w = self.width
        var = loop.var
        guard = ir.Compare(
            "<", ir.IBin("+", ir.Load(var, "int"), ir.IConst(w - 1)), loop.bound, False
        )
        lane_inits: list[ir.Stmt] = []
        vector_body: list[ir.Stmt] = []
        finals: list[ir.Stmt] = []
        for kind, payload in plan:
            if kind == "map":
                st = payload
                widened = self._widen(st.value, var)
                vector_body.append(
                    ir.SVecStore(st.name, ir.Load(var, "int"), widened, st.elem_ty, w)
                )
                continue
            if kind == "masked-map":
                st = payload
                lane_mask = self._widen_mask(st.mask, var)
                widened = self._widen(st.value, var, mask=(st.mask, False))
                vector_body.append(
                    ir.SMaskedStore(
                        st.name, ir.Load(var, "int"), lane_mask, widened, st.elem_ty, w
                    )
                )
                continue
            red = payload
            lane_op, identity, reduce_op, combine_op = _REDUCTIONS[red.op]
            vacc = self._lane_var(red.acc, taken)
            lane_inits.append(
                ir.SAssign(vacc, ir.VecConst((identity,) * w, red.ty), red.ty)
            )
            vector_body.append(
                ir.SAssign(
                    vacc,
                    ir.VecBin(
                        lane_op,
                        ir.Load(vacc, red.ty),
                        self._widen(red.expr, var),
                        w,
                        red.ty,
                    ),
                    red.ty,
                )
            )
            finals.append(
                ir.SAssign(
                    red.acc,
                    ir.FBin(
                        combine_op,
                        ir.Load(red.acc, red.ty),
                        ir.VecReduce(
                            reduce_op, ir.Load(vacc, red.ty), w, red.ty, self.style
                        ),
                        red.ty,
                    ),
                    red.ty,
                )
            )
        main = ir.SFor(
            init=(),
            cond=guard,
            step=(
                ir.SAssign(var, ir.IBin("+", ir.Load(var, "int"), ir.IConst(w)), "int"),
            ),
            body=tuple(vector_body),
        )
        return [
            *loop.init,
            ir.SIf(guard, (*lane_inits, main, *finals)),
            ir.SFor((), loop.cond, loop.step, loop.body),
        ]
