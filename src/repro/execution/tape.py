"""Tape compiler: lower an IR kernel to a flat register machine.

The tree-walk :class:`~repro.execution.interp.Interpreter` pays per-step
AST dispatch (isinstance chains, dict lookups, numpy-boxed arithmetic)
on every node visit.  A :class:`Tape` is compiled once per ``(kernel,
environment)`` and replays as a flat register machine: a linear list of
instructions over pre-resolved scalar-register and array slots, with all
floating-point operation *sites* pre-bound to the environment's
specialized implementations (:meth:`FPEnvironment.op_impl` and friends).

Bit-identical semantics are the contract, enforced by
``tests/execution/test_tape.py`` and the engine's ``check`` mode:

* every FP op routes through the same environment semantics;
* every trap (OOB, uninit read, div-by-zero, overflow, invalid casts,
  missing arrays/variables, printf arity) fires with the same message
  *and the same step count* as the interpreter;
* ``StepLimitExceeded`` fires at ``max_steps + 1`` exactly where the
  interpreter's per-node ``_tick`` would have crossed the limit.

Step accounting uses *tick fusion*: the interpreter ticks once per
statement/expression node, so a pure subtree of statically known shape
settles its whole cost in one bounded add at the end of the region.
Trap sites inside a fused region carry their static pending-tick offset
and settle exactly on the trap path (:func:`_trap_at`).  Short-circuit
nodes (``Logic``, ``Select``), loops, and anything below a dynamic child
are self-accounting barriers: they leave the step counter exact.  Side
effects inside a fused region cannot leak: a result's ``printed``/
``stdout`` are discarded on TRAP/STEP_LIMIT, so only the (exact) step
count and message are observable past a limit crossing.
"""

from __future__ import annotations

import math
import operator

from repro.errors import StepLimitExceeded, TrapError
from repro.execution.limits import DEFAULT_MAX_STEPS, INT_MAX, INT_MIN
from repro.execution.result import ExecStatus, ExecutionResult
from repro.fp.env import FPEnvironment
from repro.ir import nodes as ir

__all__ = ["Tape", "compile_tape"]


class _Unset:
    """Sentinel for never-assigned scalar registers."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


_UNSET = _Unset()

# Instruction opcodes.  An instruction is a list ``[op, ...]``:
#   EXEC     [0, fn]              fn(st, R, A, out); fn leaves st exact
#   BRANCH   [1, fn, target, n]   cond with n static pending ticks
#                                 (settled by the VM); false -> target
#   JUMP     [2, target]
#   LOOPHEAD [3, fn, target, n]   like BRANCH; true additionally settles
#                                 the iteration tick and falls through
#   TICK     [4, n]               settle n pending ticks
#   RETURN   [5]                  settle the SReturn tick, halt
#   HALT     [6]
_EXEC, _BRANCH, _JUMP, _LOOPHEAD, _TICK, _RETURN, _HALT = range(7)


def _over(st: list) -> None:
    """Cross the step limit exactly like the interpreter's ``_tick``."""
    st[0] = st[1] + 1
    raise StepLimitExceeded(f"exceeded {st[1]} interpretation steps")


def _settle(st: list, n: int) -> None:
    s = st[0] + n
    if s > st[1]:
        _over(st)
    st[0] = s


def _trap_at(st: list, s: int, msg: str) -> None:
    """Trap with ``s`` total steps — unless a pending tick crossed the
    limit first, in which case the step limit wins (as it would have
    fired earlier in tree order)."""
    if s > st[1]:
        _over(st)
    st[0] = s
    raise TrapError(msg)


_CMP_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _cmp_impl(op: str, fp: bool):
    base = _CMP_OPS[op]
    if fp:
        ne = 1 if op == "!=" else 0

        def impl(a, b, _base=base, _ne=ne):
            if a != a or b != b:
                return _ne  # NaN: only != is true
            return 1 if _base(a, b) else 0

        return impl

    def impl(a, b, _base=base):
        return 1 if _base(a, b) else 0

    return impl


def _compile_printf(fmt: str, nargs: int):
    """Precompile the :func:`_c_printf` scan of a static format string.

    Returns a render plan of ``(kind, a, b)`` entries — literal text,
    ``%d/%i`` argument, or ``format()`` spec argument — or ``None`` when
    the format consumes more conversions than arguments (a trap replayed
    at run time, after argument evaluation, exactly like the
    interpreter).
    """
    plan: list[tuple] = []
    lit: list[str] = []

    def flush() -> None:
        if lit:
            plan.append((0, "".join(lit), None))
            lit.clear()

    ai = 0
    i = 0
    while i < len(fmt):
        c = fmt[i]
        if c == "\\" and i + 1 < len(fmt):
            esc = fmt[i + 1]
            lit.append({"n": "\n", "t": "\t", "\\": "\\", '"': '"'}.get(esc, esc))
            i += 2
            continue
        if c == "%" and i + 1 < len(fmt):
            j = i + 1
            while j < len(fmt) and (fmt[j].isdigit() or fmt[j] == "."):
                j += 1
            if j < len(fmt) and fmt[j] in "dieEfgG%":
                conv = fmt[j]
                spec = fmt[i + 1 : j]
                if conv == "%":
                    lit.append("%")
                else:
                    if ai >= nargs:
                        return None
                    flush()
                    if conv in "di":
                        plan.append((1, ai, None))
                    else:
                        prec = spec[spec.index(".") + 1 :] if "." in spec else "6"
                        plan.append((2, ai, f".{prec}{conv}"))
                    ai += 1
                i = j + 1
                continue
        lit.append(c)
        i += 1
    flush()
    return plan


def _render(args: list, plan: list) -> str:
    parts = []
    for kind, a, b in plan:
        if kind == 0:
            parts.append(a)
        elif kind == 1:
            parts.append(str(int(args[a])))
        else:
            parts.append(format(float(args[a]), b))
    return "".join(parts)


class Tape:
    """One kernel lowered for one environment, runnable on many inputs."""

    __slots__ = ("kernel", "env", "code", "n_regs", "n_arrays", "binders")

    def __init__(self, kernel: ir.Kernel, env: FPEnvironment, code: list,
                 n_regs: int, n_arrays: int, binders: list) -> None:
        self.kernel = kernel
        self.env = env
        self.code = code
        self.n_regs = n_regs
        self.n_arrays = n_arrays
        self.binders = binders

    def run(self, inputs: tuple, max_steps: int = DEFAULT_MAX_STEPS) -> ExecutionResult:
        """Execute on one input vector; same contract as ``Interpreter.run``."""
        st = [0, max_steps]
        printed: list[float] = []
        stdout: list[str] = []
        try:
            if len(inputs) != len(self.binders):
                raise TrapError(
                    f"kernel takes {len(self.binders)} inputs, got {len(inputs)}"
                )
            R = [_UNSET] * self.n_regs
            A: list = [None] * self.n_arrays
            for bind, value in zip(self.binders, inputs):
                bind(value, R, A)
            out = (printed, stdout)
            code = self.code
            pc = 0
            while True:
                ins = code[pc]
                op = ins[0]
                if op == 0:  # EXEC
                    ins[1](st, R, A, out)
                    pc += 1
                elif op == 1:  # BRANCH
                    v = ins[1](st, R, A)
                    n = ins[3]
                    if n:
                        s = st[0] + n
                        if s > st[1]:
                            _over(st)
                        st[0] = s
                    pc = pc + 1 if v else ins[2]
                elif op == 3:  # LOOPHEAD
                    v = ins[1](st, R, A)
                    n = ins[3] + 1 if v else ins[3]
                    if n:
                        s = st[0] + n
                        if s > st[1]:
                            _over(st)
                        st[0] = s
                    pc = pc + 1 if v else ins[2]
                elif op == 2:  # JUMP
                    pc = ins[1]
                elif op == 4:  # TICK
                    s = st[0] + ins[1]
                    if s > st[1]:
                        _over(st)
                    st[0] = s
                    pc += 1
                elif op == 5:  # RETURN
                    s = st[0] + 1
                    if s > st[1]:
                        _over(st)
                    st[0] = s
                    break
                else:  # HALT
                    break
        except TrapError as e:
            return ExecutionResult(ExecStatus.TRAP, error=str(e), steps=st[0])
        except StepLimitExceeded as e:
            return ExecutionResult(ExecStatus.STEP_LIMIT, error=str(e), steps=st[0])
        return ExecutionResult(
            ExecStatus.OK,
            printed=tuple(printed),
            stdout="".join(stdout),
            steps=st[0],
        )


def compile_tape(kernel: ir.Kernel, env: FPEnvironment) -> Tape:
    """Lower ``kernel`` for ``env`` into a :class:`Tape`."""
    return _Compiler(kernel, env).compile()


class _Slots(dict):
    """Name -> slot table that numbers a name on its first lookup."""

    def __missing__(self, name: str) -> int:
        slot = self[name] = len(self)
        return slot


class _Compiler:
    def __init__(self, kernel: ir.Kernel, env: FPEnvironment) -> None:
        self.kernel = kernel
        self.env = env
        # Slots are numbered as compilation first meets each name.  The
        # params are touched first, so binders keep slots 0..k and a
        # param the body never reads still has one.
        self.scalars = _Slots()
        self.arrays = _Slots()
        self.code: list[list] = []
        for p in kernel.params:
            (self.arrays if p.is_pointer else self.scalars)[p.name]

    # -- compilation entry -------------------------------------------------------

    def compile(self) -> Tape:
        for s in self.kernel.body:
            self._stmt(s)
        self.code.append([_HALT])
        return Tape(
            self.kernel,
            self.env,
            self.code,
            len(self.scalars),
            len(self.arrays),
            [self._binder(p) for p in self.kernel.params],
        )

    def _binder(self, p: ir.Param):
        if p.is_pointer:
            slot = self.arrays[p.name]
            canon = self.env.canon_impl(p.scalar_ty)
            name = p.name

            def bind(value, R, A, _slot=slot, _canon=canon, _name=name):
                try:
                    elems = [float(v) for v in value]
                except TypeError:
                    raise TrapError(
                        f"parameter {_name!r} needs a sequence input"
                    ) from None
                A[_slot] = [_canon(v) for v in elems]

            return bind
        slot = self.scalars[p.name]
        if p.ty == "int":
            def bind(value, R, A, _slot=slot):
                v = int(value)
                if not INT_MIN <= v <= INT_MAX:
                    raise TrapError(f"signed integer overflow: {v}")
                R[_slot] = v

            return bind
        canon = self.env.canon_impl(p.ty)

        def bind(value, R, A, _slot=slot, _canon=canon):
            R[_slot] = _canon(float(value))

        return bind

    # -- expression compilation --------------------------------------------------
    #
    # ``_expr(e, off) -> (fn, cost)``.  ``off`` is the number of pending
    # (unsettled) ticks when ``fn`` is entered.  ``cost`` is an int when
    # the node consumes a statically known number of ticks on its
    # non-trap path and leaves ``st`` untouched (the caller settles);
    # ``cost`` is ``None`` when the node is self-accounting: it settles
    # everything (including ``off``) and returns with ``st`` exact.

    def _expr(self, e: ir.Expr, off: int):
        fn = self._DISPATCH.get(type(e))
        if fn is None:
            return self._unknown(e, off)
        return fn(self, e, off)

    def _settled(self, e: ir.Expr, base: int):
        """A closure returning the value with ``st`` exact on return."""
        f, c = self._expr(e, base)
        if c is None:
            return f
        n = base + c

        def g(st, R, A, _f=f, _n=n):
            v = _f(st, R, A)
            s = st[0] + _n
            if s > st[1]:
                _over(st)
            st[0] = s
            return v

        return g

    def _children(self, exprs, off: int):
        """Compile strict children evaluated left-to-right.

        Returns ``(vals_fn, cost, p_op)``: ``vals_fn(st, R, A)`` yields
        the child values as a list; ``cost`` is the node's total static
        tick count (entry + children) or ``None``; ``p_op`` is the
        pending-tick offset at the point the node's own operation runs.
        """
        parts = []
        pending = off + 1  # the node's entry tick
        total = 1
        static = True
        for e in exprs:
            f, c = self._expr(e, pending)
            if c is None:
                static = False
                total = None
                pending = 0
                parts.append((f, True))
            else:
                pending += c
                if static:
                    total += c
                parts.append((f, False))
        fs = tuple(f for f, _ in parts)
        if static:
            if len(fs) == 1:
                f0 = fs[0]

                def vals(st, R, A, _f=f0):
                    return [_f(st, R, A)]
            elif len(fs) == 2:
                f0, f1 = fs

                def vals(st, R, A, _f0=f0, _f1=f1):
                    return [_f0(st, R, A), _f1(st, R, A)]
            else:
                def vals(st, R, A, _fs=fs):
                    return [f(st, R, A) for f in _fs]
            return vals, total, pending

        def vals(st, R, A, _fs=fs):
            return [f(st, R, A) for f in _fs]

        return vals, None, pending

    def _lift(self, exprs, off: int, apply):
        """Build a node from strict children and ``apply(st, p, vals)``.

        ``apply`` receives the pending-tick offset ``p`` to pass to
        :func:`_trap_at` for its own trap sites (0 when ``st`` is already
        exact).
        """
        vals_fn, cost, p_op = self._children(exprs, off)
        if cost is not None:
            def fn(st, R, A, _vf=vals_fn, _ap=apply, _p=p_op):
                return _ap(st, _p, _vf(st, R, A))

            return fn, cost

        trailing = p_op

        def fn(st, R, A, _vf=vals_fn, _ap=apply, _t=trailing):
            vals = _vf(st, R, A)
            if _t:
                _settle(st, _t)
            return _ap(st, 0, vals)

        return fn, None

    # -- leaves ------------------------------------------------------------------

    def _c_const(self, e, off: int):
        v = e.value

        def fn(st, R, A, _v=v):
            return _v

        return fn, 1

    def _c_vecconst(self, e, off: int):
        v = e.values

        def fn(st, R, A, _v=v):
            return _v

        return fn, 1

    def _c_load(self, e, off: int):
        slot = self.scalars[e.name]
        msg = f"read of unset variable {e.name!r}"
        p = off + 1

        def fn(st, R, A, _s=slot, _p=p, _m=msg):
            v = R[_s]
            if v is _UNSET:
                _trap_at(st, st[0] + _p, _m)
            return v

        return fn, 1

    # -- array reads -------------------------------------------------------------

    def _array_at(self, st, pending, slot, name, A):
        arr = A[slot]
        if arr is None:
            _trap_at(st, st[0] + pending, f"no array named {name!r}")
        return arr

    def _c_loadelem(self, e, off: int):
        slot = self.arrays[e.name]
        name = e.name
        f_idx, c_idx = self._expr(e.index, off + 1)
        p_arr = off + 1
        # A self-accounting index leaves ``st`` exact: nothing is pending.
        p_chk = 0 if c_idx is None else off + 1 + c_idx

        def fn(st, R, A, _slot=slot, _name=name, _f=f_idx, _pa=p_arr, _pc=p_chk):
            arr = A[_slot]
            if arr is None:
                _trap_at(st, st[0] + _pa, f"no array named {_name!r}")
            pos = _f(st, R, A)
            if not 0 <= pos < len(arr):
                _trap_at(
                    st, st[0] + _pc,
                    f"index {pos} out of bounds for {_name}[{len(arr)}]",
                )
            v = arr[pos]
            if v is None:
                _trap_at(
                    st, st[0] + _pc,
                    f"read of uninitialized element {_name}[{pos}]",
                )
            return v

        return fn, None if c_idx is None else 1 + c_idx

    # -- scalar FP ---------------------------------------------------------------

    def _c_fbin(self, e, off: int):
        impl = self.env.op_impl(e.op, e.ty)
        lf, lc = self._expr(e.left, off + 1)
        if lc is not None:
            rf, rc = self._expr(e.right, off + 1 + lc)
            if rc is not None:
                def fn(st, R, A, _op=impl, _l=lf, _r=rf):
                    return _op(_l(st, R, A), _r(st, R, A))

                return fn, 1 + lc + rc
        else:
            rf = self._settled(e.right, 0)

        def fn(st, R, A, _op=impl, _l=lf, _r=rf):
            a = _l(st, R, A)
            return _op(a, _r(st, R, A))

        return fn, None

    def _c_fneg(self, e, off: int):
        impl = self.env.neg_impl(e.ty)
        f, c = self._expr(e.operand, off + 1)

        def fn(st, R, A, _op=impl, _f=f):
            return _op(_f(st, R, A))

        return fn, None if c is None else 1 + c

    def _c_fma(self, e, off: int):
        impl = self.env.fma_impl(e.ty)

        def apply(st, p, vals, _op=impl):
            return _op(vals[0], vals[1], vals[2])

        return self._lift((e.a, e.b, e.c), off, apply)

    def _c_fcall(self, e, off: int):
        impl = self.env.call_impl(e.name, e.ty)

        def apply(st, p, vals, _op=impl):
            return _op(tuple(vals))

        return self._lift(e.args, off, apply)

    # -- integers ----------------------------------------------------------------

    def _c_ibin(self, e, off: int):
        op = e.op
        if op in "+-*":
            lf, lc = self._expr(e.left, off + 1)
            if lc is not None:
                rf, rc = self._expr(e.right, off + 1 + lc)
                if rc is not None:
                    # Hot path (loop index arithmetic): direct nested
                    # closure, no vals/apply indirection.
                    p = off + 1 + lc + rc
                    pyop = {"+": operator.add, "-": operator.sub,
                            "*": operator.mul}[op]

                    def fn(st, R, A, _op=pyop, _l=lf, _r=rf, _p=p,
                           _lo=INT_MIN, _hi=INT_MAX):
                        r = _op(_l(st, R, A), _r(st, R, A))
                        if _lo <= r <= _hi:
                            return r
                        _trap_at(st, st[0] + _p, f"signed integer overflow: {r}")

                    return fn, 1 + lc + rc
            pyop = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]

            def apply(st, p, vals, _op=pyop):
                r = _op(vals[0], vals[1])
                if INT_MIN <= r <= INT_MAX:
                    return r
                _trap_at(st, st[0] + p, f"signed integer overflow: {r}")

            return self._lift((e.left, e.right), off, apply)
        div = op == "/"

        def apply(st, p, vals, _div=div):
            a, b = vals
            if b == 0:
                _trap_at(st, st[0] + p, "integer division by zero")
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            r = q if _div else a - q * b  # C remainder: sign of dividend
            if INT_MIN <= r <= INT_MAX:
                return r
            _trap_at(st, st[0] + p, f"signed integer overflow: {r}")

        return self._lift((e.left, e.right), off, apply)

    def _c_ineg(self, e, off: int):
        def apply(st, p, vals):
            r = -vals[0]
            if INT_MIN <= r <= INT_MAX:
                return r
            _trap_at(st, st[0] + p, f"signed integer overflow: {r}")

        return self._lift((e.operand,), off, apply)

    def _c_compare(self, e, off: int):
        impl = _cmp_impl(e.op, e.fp)
        lf, lc = self._expr(e.left, off + 1)
        if lc is not None:
            rf, rc = self._expr(e.right, off + 1 + lc)
            if rc is not None:
                # Hot path (loop conditions): direct nested closure.
                def fn(st, R, A, _op=impl, _l=lf, _r=rf):
                    return _op(_l(st, R, A), _r(st, R, A))

                return fn, 1 + lc + rc

        def apply(st, p, vals, _op=impl):
            return _op(vals[0], vals[1])

        return self._lift((e.left, e.right), off, apply)

    # -- short-circuit (self-accounting) -----------------------------------------

    def _c_logic(self, e, off: int):
        lf = self._settled(e.left, off + 1)
        rf = self._settled(e.right, 0)
        if e.op == "&&":
            def fn(st, R, A, _l=lf, _r=rf):
                if _l(st, R, A) != 0:
                    return 1 if _r(st, R, A) != 0 else 0
                return 0
        else:
            def fn(st, R, A, _l=lf, _r=rf):
                if _l(st, R, A) != 0:
                    return 1
                return 1 if _r(st, R, A) != 0 else 0
        return fn, None

    def _c_not(self, e, off: int):
        def apply(st, p, vals):
            return 0 if vals[0] != 0 else 1

        return self._lift((e.operand,), off, apply)

    def _c_select(self, e, off: int):
        cf = self._settled(e.cond, off + 1)
        tf = self._settled(e.then, 0)
        of = self._settled(e.other, 0)

        def fn(st, R, A, _c=cf, _t=tf, _o=of):
            if _c(st, R, A) != 0:
                return _t(st, R, A)
            return _o(st, R, A)

        return fn, None

    # -- conversions -------------------------------------------------------------

    def _c_sitofp(self, e, off: int):
        canon = self.env.canon_impl(e.ty)

        def apply(st, p, vals, _c=canon):
            return _c(float(vals[0]))

        return self._lift((e.operand,), off, apply)

    def _c_fptosi(self, e, off: int):
        def apply(st, p, vals):
            v = vals[0]
            if math.isnan(v) or math.isinf(v) or not INT_MIN <= v <= INT_MAX:
                _trap_at(st, st[0] + p, f"invalid float->int conversion of {v!r}")
            return math.trunc(v)

        return self._lift((e.operand,), off, apply)

    def _c_fpext(self, e, off: int):
        f, c = self._expr(e.operand, off + 1)
        return f, None if c is None else 1 + c  # float values are exact doubles

    def _c_fptrunc(self, e, off: int):
        canon = self.env.canon_impl("float")  # nan/inf pass through canon

        def apply(st, p, vals, _c=canon):
            return _c(vals[0])

        return self._lift((e.operand,), off, apply)

    # -- vectors -----------------------------------------------------------------

    def _c_vecsplat(self, e, off: int):
        lanes = e.lanes

        def apply(st, p, vals, _n=lanes):
            return (vals[0],) * _n

        return self._lift((e.operand,), off, apply)

    def _c_veciota(self, e, off: int):
        lanes = e.lanes

        def apply(st, p, vals, _n=lanes):
            base = vals[0]
            out = []
            for j in range(_n):
                v = base + j
                if not INT_MIN <= v <= INT_MAX:
                    _trap_at(st, st[0] + p, f"signed integer overflow: {v}")
                out.append(v)
            return tuple(out)

        return self._lift((e.base,), off, apply)

    def _c_vecload(self, e, off: int):
        slot = self.arrays[e.name]
        name = e.name
        lanes = e.lanes
        p_arr = off + 1
        f_raw, c_idx = self._expr(e.index, off + 1)
        # A self-accounting index leaves ``st`` exact: nothing is pending.
        p_chk = 0 if c_idx is None else off + 1 + c_idx

        def fn(st, R, A, _slot=slot, _name=name, _n=lanes, _f=f_raw,
               _pa=p_arr, _pc=p_chk):
            arr = A[_slot]
            if arr is None:
                _trap_at(st, st[0] + _pa, f"no array named {_name!r}")
            idx = _f(st, R, A)
            if not 0 <= idx <= len(arr) - _n:
                _trap_at(
                    st, st[0] + _pc,
                    f"vector index {idx}..{idx + _n - 1} out of bounds "
                    f"for {_name}[{len(arr)}]",
                )
            out = []
            for j in range(_n):
                v = arr[idx + j]
                if v is None:
                    _trap_at(
                        st, st[0] + _pc,
                        f"read of uninitialized element {_name}[{idx + j}]",
                    )
                out.append(v)
            return tuple(out)

        return fn, None if c_idx is None else 1 + c_idx

    def _c_vecsitofp(self, e, off: int):
        canon = self.env.canon_impl(e.ty)

        def apply(st, p, vals, _c=canon):
            return tuple(_c(float(v)) for v in vals[0])

        return self._lift((e.operand,), off, apply)

    def _c_vecbin(self, e, off: int):
        impl = self.env.op_impl(e.op, e.ty)

        def apply(st, p, vals, _op=impl):
            return tuple(map(_op, vals[0], vals[1]))

        return self._lift((e.left, e.right), off, apply)

    def _c_vecneg(self, e, off: int):
        impl = self.env.neg_impl(e.ty)

        def apply(st, p, vals, _op=impl):
            return tuple(map(_op, vals[0]))

        return self._lift((e.operand,), off, apply)

    def _c_vecfma(self, e, off: int):
        impl = self.env.fma_impl(e.ty)

        def apply(st, p, vals, _op=impl):
            return tuple(map(_op, vals[0], vals[1], vals[2]))

        return self._lift((e.a, e.b, e.c), off, apply)

    def _c_veccall(self, e, off: int):
        # veccall_impl binds the vector math library when the environment
        # carries one (the vec-libm tier) and the scalar libm otherwise.
        impl = self.env.veccall_impl(e.name, e.ty)
        lanes = e.lanes

        def apply(st, p, vals, _op=impl, _n=lanes):
            return tuple(
                _op(tuple(arg[j] for arg in vals)) for j in range(_n)
            )

        return self._lift(e.args, off, apply)

    def _c_vecfpext(self, e, off: int):
        f, c = self._expr(e.operand, off + 1)
        return f, None if c is None else 1 + c  # float lanes are exact doubles

    def _c_vecfptrunc(self, e, off: int):
        canon = self.env.canon_impl("float")  # nan/inf pass through canon

        def apply(st, p, vals, _c=canon):
            return tuple(map(_c, vals[0]))

        return self._lift((e.operand,), off, apply)

    def _c_veccmp(self, e, off: int):
        impl = _cmp_impl(e.op, fp=True)

        def apply(st, p, vals, _op=impl):
            return tuple(map(_op, vals[0], vals[1]))

        return self._lift((e.left, e.right), off, apply)

    def _c_vecselect(self, e, off: int):
        # Both arms evaluate in full — the if-conversion observable.
        def apply(st, p, vals):
            return tuple(
                t if m else o for m, t, o in zip(vals[0], vals[1], vals[2])
            )

        return self._lift((e.mask, e.then, e.other), off, apply)

    def _c_vecmaskedload(self, e, off: int):
        slot = self.arrays[e.name]
        name = e.name
        lanes = e.lanes
        invert = e.invert
        f_mask, c_mask = self._expr(e.mask, off + 1)
        if c_mask is not None:
            p_arr = off + 1 + c_mask
            f_idx, c_idx = self._expr(e.index, p_arr)
        else:
            p_arr = 0
            f_idx, c_idx = self._expr(e.index, 0)
        if c_mask is not None and c_idx is not None:
            p_chk = p_arr + c_idx

            def fn(st, R, A, _slot=slot, _name=name, _n=lanes, _inv=invert,
                   _fm=f_mask, _fi=f_idx, _pa=p_arr, _pc=p_chk):
                mask = _fm(st, R, A)
                arr = A[_slot]
                if arr is None:
                    _trap_at(st, st[0] + _pa, f"no array named {_name!r}")
                idx = _fi(st, R, A)
                out = []
                for j in range(_n):
                    active = not mask[j] if _inv else bool(mask[j])
                    if active:
                        pos = idx + j
                        if not 0 <= pos < len(arr):
                            _trap_at(
                                st, st[0] + _pc,
                                f"index {pos} out of bounds for {_name}[{len(arr)}]",
                            )
                        v = arr[pos]
                        if v is None:
                            _trap_at(
                                st, st[0] + _pc,
                                f"read of uninitialized element {_name}[{pos}]",
                            )
                        out.append(v)
                    else:
                        out.append(0.0)  # zeroing masking: no memory touch
                return tuple(out)

            return fn, 1 + c_mask + c_idx

        fm_s = self._settled(e.mask, off + 1)
        fi_s = self._settled(e.index, 0)

        def fn(st, R, A, _slot=slot, _name=name, _n=lanes, _inv=invert,
               _fm=fm_s, _fi=fi_s):
            mask = _fm(st, R, A)
            arr = A[_slot]
            if arr is None:
                raise TrapError(f"no array named {_name!r}")
            idx = _fi(st, R, A)
            out = []
            for j in range(_n):
                active = not mask[j] if _inv else bool(mask[j])
                if active:
                    pos = idx + j
                    if not 0 <= pos < len(arr):
                        raise TrapError(
                            f"index {pos} out of bounds for {_name}[{len(arr)}]"
                        )
                    v = arr[pos]
                    if v is None:
                        raise TrapError(
                            f"read of uninitialized element {_name}[{pos}]"
                        )
                    out.append(v)
                else:
                    out.append(0.0)
            return tuple(out)

        return fn, None

    def _c_vecreduce(self, e, off: int):
        combine = self.env.op_impl(e.op, e.ty)
        style = e.style

        if style == "ladder":
            def apply(st, p, vals, _op=combine):
                lanes = vals[0]
                acc = lanes[0]
                for v in lanes[1:]:
                    acc = _op(acc, v)
                return acc
        elif style == "butterfly":
            def apply(st, p, vals, _op=combine):
                lanes = list(vals[0])
                n = len(lanes)
                while n > 1:
                    m = (n + 1) // 2
                    for j in range(n - m):
                        lanes[j] = _op(lanes[j], lanes[j + m])
                    n = m
                return lanes[0]
        else:
            def apply(st, p, vals, _op=combine):
                # adjacent: pairwise neighbours per round, odd lane carries
                lanes = list(vals[0])
                while len(lanes) > 1:
                    nxt = [
                        _op(lanes[j], lanes[j + 1])
                        for j in range(0, len(lanes) - 1, 2)
                    ]
                    if len(lanes) % 2:
                        nxt.append(lanes[-1])
                    lanes = nxt
                return lanes[0]

        return self._lift((e.operand,), off, apply)

    def _unknown(self, e, off: int):
        msg = f"cannot evaluate {type(e).__name__}"
        p = off + 1

        def fn(st, R, A, _p=p, _m=msg):  # pragma: no cover - exhaustive
            _trap_at(st, st[0] + _p, _m)

        return fn, None

    _DISPATCH = {
        ir.FConst: _c_const,
        ir.IConst: _c_const,
        ir.VecConst: _c_vecconst,
        ir.Load: _c_load,
        ir.LoadElem: _c_loadelem,
        ir.FBin: _c_fbin,
        ir.FNeg: _c_fneg,
        ir.Fma: _c_fma,
        ir.FCall: _c_fcall,
        ir.IBin: _c_ibin,
        ir.INeg: _c_ineg,
        ir.Compare: _c_compare,
        ir.Logic: _c_logic,
        ir.Not: _c_not,
        ir.Select: _c_select,
        ir.SiToFp: _c_sitofp,
        ir.FpToSi: _c_fptosi,
        ir.FpExt: _c_fpext,
        ir.FpTrunc: _c_fptrunc,
        ir.VecSplat: _c_vecsplat,
        ir.VecIota: _c_veciota,
        ir.VecLoad: _c_vecload,
        ir.VecSiToFp: _c_vecsitofp,
        ir.VecFpExt: _c_vecfpext,
        ir.VecFpTrunc: _c_vecfptrunc,
        ir.VecBin: _c_vecbin,
        ir.VecNeg: _c_vecneg,
        ir.VecFma: _c_vecfma,
        ir.VecCall: _c_veccall,
        ir.VecCmp: _c_veccmp,
        ir.VecSelect: _c_vecselect,
        ir.VecMaskedLoad: _c_vecmaskedload,
        ir.VecReduce: _c_vecreduce,
    }

    # -- statement compilation ---------------------------------------------------

    def _emit(self, ins: list) -> int:
        self.code.append(ins)
        return len(self.code) - 1

    def _block(self, stmts) -> None:
        for s in stmts:
            self._stmt(s)

    def _stmt(self, s: ir.Stmt) -> None:
        if isinstance(s, ir.SAssign):
            slot = self.scalars[s.name]
            vf, vc = self._expr(s.value, 1)
            if vc is not None:
                n = 1 + vc

                def fn(st, R, A, out, _slot=slot, _vf=vf, _n=n):
                    v = _vf(st, R, A)
                    s0 = st[0] + _n
                    if s0 > st[1]:
                        _over(st)
                    st[0] = s0
                    R[_slot] = v
            else:
                def fn(st, R, A, out, _slot=slot, _vf=vf):
                    R[_slot] = _vf(st, R, A)

            self._emit([_EXEC, fn])
        elif isinstance(s, ir.SDeclArray):
            self._decl_array(s)
        elif isinstance(s, ir.SStoreElem):
            self._store_elem(s)
        elif isinstance(s, ir.SVecStore):
            self._vec_store(s)
        elif isinstance(s, ir.SMaskedStore):
            self._masked_store(s)
        elif isinstance(s, ir.SIf):
            cf, cc = self._expr(s.cond, 1)
            branch = self._emit([_BRANCH, cf, 0, 0 if cc is None else 1 + cc])
            self._block(s.then)
            if s.other:
                jump = self._emit([_JUMP, 0])
                self.code[branch][2] = len(self.code)
                self._block(s.other)
                self.code[jump][1] = len(self.code)
            else:
                self.code[branch][2] = len(self.code)
        elif isinstance(s, ir.SFor):
            self._emit([_TICK, 1])
            self._block(s.init)
            head = len(self.code)
            if s.cond is None:
                cf, cc = self._true_fn(), 0
            else:
                cf, cc = self._expr(s.cond, 0)
            loop = self._emit([_LOOPHEAD, cf, 0, cc if cc is not None else 0])
            self._block(s.body)
            self._block(s.step)
            self._emit([_JUMP, head])
            self.code[loop][2] = len(self.code)
        elif isinstance(s, ir.SWhile):
            self._emit([_TICK, 1])
            head = len(self.code)
            cf, cc = self._expr(s.cond, 0)
            loop = self._emit([_LOOPHEAD, cf, 0, cc if cc is not None else 0])
            self._block(s.body)
            self._emit([_JUMP, head])
            self.code[loop][2] = len(self.code)
        elif isinstance(s, ir.SPrint):
            self._print(s)
        elif isinstance(s, ir.SReturn):
            self._emit([_RETURN])
        else:  # pragma: no cover - exhaustive
            msg = f"cannot execute {type(s).__name__}"

            def fn(st, R, A, out, _m=msg):
                _trap_at(st, st[0] + 1, _m)

            self._emit([_EXEC, fn])

    @staticmethod
    def _true_fn():
        def fn(st, R, A):
            return 1

        return fn

    def _decl_array(self, s: ir.SDeclArray) -> None:
        slot = self.arrays[s.name]
        size = s.size
        if s.init is None:
            def fn(st, R, A, out, _slot=slot, _size=size):
                _settle(st, 1)
                A[_slot] = [None] * _size

            self._emit([_EXEC, fn])
            return
        # Init elements evaluate in sequence; settle each one exactly
        # (the first carries the statement's entry tick).
        fns = []
        base = 1
        for e in s.init:
            fns.append(self._settled(e, base))
            base = 0

        def fn(st, R, A, out, _slot=slot, _size=size, _fns=tuple(fns)):
            values: list = [float(f(st, R, A)) for f in _fns]
            if len(values) < _size:
                values.extend([0.0] * (_size - len(values)))
            A[_slot] = values

        self._emit([_EXEC, fn])

    def _store_elem(self, s: ir.SStoreElem) -> None:
        slot = self.arrays[s.name]
        name = s.name
        idx_f = self._settled(s.index, 1)
        val_f = self._settled(s.value, 0)

        def fn(st, R, A, out, _slot=slot, _name=name, _fi=idx_f, _fv=val_f):
            arr = A[_slot]
            if arr is None:
                _trap_at(st, st[0] + 1, f"no array named {_name!r}")
            idx = _fi(st, R, A)
            if not 0 <= idx < len(arr):
                raise TrapError(f"index {idx} out of bounds for {_name}[{len(arr)}]")
            arr[idx] = float(_fv(st, R, A))

        self._emit([_EXEC, fn])

    def _vec_store(self, s: ir.SVecStore) -> None:
        slot = self.arrays[s.name]
        name = s.name
        lanes = s.lanes
        idx_f = self._settled(s.index, 1)
        val_f = self._settled(s.value, 0)

        def fn(st, R, A, out, _slot=slot, _name=name, _n=lanes, _fi=idx_f,
               _fv=val_f):
            arr = A[_slot]
            if arr is None:
                _trap_at(st, st[0] + 1, f"no array named {_name!r}")
            idx = _fi(st, R, A)
            if not 0 <= idx <= len(arr) - _n:
                raise TrapError(
                    f"vector index {idx}..{idx + _n - 1} out of bounds "
                    f"for {_name}[{len(arr)}]"
                )
            values = _fv(st, R, A)
            for j in range(_n):
                arr[idx + j] = float(values[j])

        self._emit([_EXEC, fn])

    def _masked_store(self, s: ir.SMaskedStore) -> None:
        slot = self.arrays[s.name]
        name = s.name
        if s.lanes == 1:
            # Scalar predicated store short-circuits: a false mask skips
            # index, value and the write.
            mask_f = self._settled(s.mask, 1)
            idx_f = self._settled(s.index, 0)
            val_f = self._settled(s.value, 0)

            def fn(st, R, A, out, _slot=slot, _name=name, _fm=mask_f,
                   _fi=idx_f, _fv=val_f):
                if _fm(st, R, A) == 0:
                    return
                arr = A[_slot]
                if arr is None:
                    raise TrapError(f"no array named {_name!r}")
                idx = _fi(st, R, A)
                if not 0 <= idx < len(arr):
                    raise TrapError(
                        f"index {idx} out of bounds for {_name}[{len(arr)}]"
                    )
                arr[idx] = float(_fv(st, R, A))

            self._emit([_EXEC, fn])
            return
        lanes = s.lanes
        mask_f = self._settled(s.mask, 1)
        val_f = self._settled(s.value, 0)
        idx_f = self._settled(s.index, 0)

        def fn(st, R, A, out, _slot=slot, _name=name, _n=lanes, _fm=mask_f,
               _fv=val_f, _fi=idx_f):
            mask = _fm(st, R, A)
            values = _fv(st, R, A)
            arr = A[_slot]
            if arr is None:
                raise TrapError(f"no array named {_name!r}")
            idx = _fi(st, R, A)
            for j in range(_n):
                if not mask[j]:
                    continue
                pos = idx + j
                if not 0 <= pos < len(arr):
                    raise TrapError(
                        f"index {pos} out of bounds for {_name}[{len(arr)}]"
                    )
                arr[pos] = float(values[j])

        self._emit([_EXEC, fn])

    def _print(self, s: ir.SPrint) -> None:
        plan = _compile_printf(s.fmt, len(s.values))
        fns = []
        base = 1
        for v in s.values:
            fns.append(self._settled(v, base))
            base = 0
        arg_fns = tuple(fns)

        if plan is None:
            def fn(st, R, A, out, _fns=arg_fns):
                if not _fns:
                    _settle(st, 1)
                else:
                    for f in _fns:
                        f(st, R, A)
                raise TrapError("printf: more conversions than arguments")

            self._emit([_EXEC, fn])
            return

        def fn(st, R, A, out, _fns=arg_fns, _plan=plan):
            if not _fns:
                _settle(st, 1)
                args: list = []
            else:
                args = [f(st, R, A) for f in _fns]
            out[1].append(_render(args, _plan))
            printed = out[0]
            for v in args:
                if isinstance(v, float):
                    printed.append(v)

        self._emit([_EXEC, fn])
