"""Tape compiler: lower an IR kernel to a flat register machine.

The tree-walk :class:`~repro.execution.interp.Interpreter` pays per-step
AST dispatch (isinstance chains, dict lookups, numpy-boxed arithmetic)
on every node visit.  A :class:`Tape` is compiled once per ``(kernel,
environment)`` and replays as a flat register machine: a linear list of
instructions over pre-resolved scalar-register and array slots, with all
floating-point operation *sites* pre-bound to the environment's
specialized implementations (:meth:`FPEnvironment.op_impl` and friends).

Bit-identical results are the contract, enforced by
``tests/execution/test_tape.py`` and the engine's ``check`` mode.  The
tape runs only the fault-free path:

* every FP op routes through the same environment semantics, so a run
  that finishes prints the interpreter's bits and counts its steps;
* every trap site (OOB, uninit read, div-by-zero, overflow, invalid
  casts, missing arrays/variables, printf arity and conversions) and
  every step-limit crossing raises the private :class:`_Fault`, and
  :meth:`Tape.run` answers a faulting run by rerunning it on the
  interpreter, which owns every trap message and step count.

Step accounting settles each statement once: an expression has a static
tick cost (one per node on its strict path), which its statement adds
and checks against the limit after evaluating.  ``Logic`` and ``Select``
add their taken arm's ticks straight to the counter, and loop heads
settle every iteration, so a fault-free run's step total is exact and a
run that would cross the limit crosses it at the next settle.
"""

from __future__ import annotations

import math
import operator

from repro.errors import TrapError
from repro.execution.interp import Interpreter, printf_plan, render_printf
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


class _Fault(Exception):
    """A trap or step-limit crossing: the interpreter reruns the run."""


def _fault(*_) -> None:
    raise _Fault


def _true(st, R, A) -> int:
    """The condition of a ``for`` loop without one."""
    return 1


# Instruction opcodes.  An instruction is a list ``[op, ...]``:
#   EXEC     [0, fn]                    fn(st, R, A, out) settles its ticks
#   BRANCH   [1, fn, target, nt, nf]    settle nt (true) or nf (false);
#                                       false -> target
#   JUMP     [2, target]
#   TICK     [3, n]                     settle n ticks
#   RETURN   [4]                        settle the SReturn tick, halt
#   HALT     [5]
_EXEC, _BRANCH, _JUMP, _TICK, _RETURN, _HALT = range(6)


def _settle(st: list, n: int) -> None:
    s = st[0] + n
    if s > st[1]:
        raise _Fault
    st[0] = s


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
        """Execute on one input vector; same contract as ``Interpreter.run``.

        A run that faults is handed to the interpreter from the start.
        """
        st = [0, max_steps]
        printed: list[float] = []
        stdout: list[str] = []
        try:
            if len(inputs) != len(self.binders):
                raise _Fault
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
                    if ins[1](st, R, A):
                        s = st[0] + ins[3]
                        pc += 1
                    else:
                        s = st[0] + ins[4]
                        pc = ins[2]
                    if s > st[1]:
                        raise _Fault
                    st[0] = s
                elif op == 2:  # JUMP
                    pc = ins[1]
                elif op == 3:  # TICK
                    _settle(st, ins[1])
                    pc += 1
                elif op == 4:  # RETURN
                    _settle(st, 1)
                    break
                else:  # HALT
                    break
        except _Fault:
            return Interpreter(self.kernel, self.env, max_steps).run(inputs)
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

            def bind(value, R, A, _slot=slot, _canon=canon):
                try:
                    elems = [float(v) for v in value]
                except TypeError:
                    raise _Fault from None
                A[_slot] = [_canon(v) for v in elems]

            return bind
        slot = self.scalars[p.name]
        if p.ty == "int":
            def bind(value, R, A, _slot=slot):
                v = int(value)
                if not INT_MIN <= v <= INT_MAX:
                    raise _Fault
                R[_slot] = v

            return bind
        canon = self.env.canon_impl(p.ty)

        def bind(value, R, A, _slot=slot, _canon=canon):
            R[_slot] = _canon(float(value))

        return bind

    # -- expression compilation --------------------------------------------------
    #
    # ``_expr(e) -> (fn, cost)``: ``fn(st, R, A)`` returns the value and
    # ``cost`` is the number of ticks the node takes on its strict path,
    # which the enclosing statement settles.  Ticks of a short-circuit
    # arm are added to ``st[0]`` by the node that takes it.

    def _expr(self, e: ir.Expr):
        return self._DISPATCH.get(type(e), _Compiler._unknown)(self, e)

    def _children(self, exprs):
        """Compile strict children evaluated left-to-right.

        Returns ``(vals_fn, cost)``: ``vals_fn(st, R, A)`` yields the
        child values as a list; ``cost`` counts one entry tick plus the
        children's costs.
        """
        fs = []
        cost = 1
        for e in exprs:
            f, c = self._expr(e)
            fs.append(f)
            cost += c
        if len(fs) == 1:
            f0 = fs[0]

            def vals(st, R, A, _f=f0):
                return [_f(st, R, A)]
        elif len(fs) == 2:
            f0, f1 = fs

            def vals(st, R, A, _f0=f0, _f1=f1):
                return [_f0(st, R, A), _f1(st, R, A)]
        else:
            def vals(st, R, A, _fs=tuple(fs)):
                return [f(st, R, A) for f in _fs]
        return vals, cost

    def _lift(self, exprs, apply):
        """Build a node from strict children and ``apply(vals)``."""
        vals_fn, cost = self._children(exprs)

        def fn(st, R, A, _vf=vals_fn, _ap=apply):
            return _ap(_vf(st, R, A))

        return fn, cost

    # -- leaves ------------------------------------------------------------------

    def _c_const(self, e):
        def fn(st, R, A, _v=e.value):
            return _v

        return fn, 1

    def _c_vecconst(self, e):
        def fn(st, R, A, _v=e.values):
            return _v

        return fn, 1

    def _c_load(self, e):
        def fn(st, R, A, _s=self.scalars[e.name]):
            v = R[_s]
            if v is _UNSET:
                raise _Fault
            return v

        return fn, 1

    def _c_loadelem(self, e):
        f_idx, c_idx = self._expr(e.index)

        def fn(st, R, A, _slot=self.arrays[e.name], _f=f_idx):
            arr = A[_slot]
            if arr is None:
                raise _Fault
            pos = _f(st, R, A)
            if not 0 <= pos < len(arr):
                raise _Fault
            v = arr[pos]
            if v is None:
                raise _Fault
            return v

        return fn, 1 + c_idx

    # -- scalar FP ---------------------------------------------------------------

    def _c_fbin(self, e):
        lf, lc = self._expr(e.left)
        rf, rc = self._expr(e.right)

        def fn(st, R, A, _op=self.env.op_impl(e.op, e.ty), _l=lf, _r=rf):
            return _op(_l(st, R, A), _r(st, R, A))

        return fn, 1 + lc + rc

    def _c_fneg(self, e):
        f, c = self._expr(e.operand)

        def fn(st, R, A, _op=self.env.neg_impl(e.ty), _f=f):
            return _op(_f(st, R, A))

        return fn, 1 + c

    def _c_fma(self, e):
        def apply(vals, _op=self.env.fma_impl(e.ty)):
            return _op(vals[0], vals[1], vals[2])

        return self._lift((e.a, e.b, e.c), apply)

    def _c_fcall(self, e):
        def apply(vals, _op=self.env.call_impl(e.name, e.ty)):
            return _op(tuple(vals))

        return self._lift(e.args, apply)

    # -- integers ----------------------------------------------------------------

    def _c_ibin(self, e):
        lf, lc = self._expr(e.left)
        rf, rc = self._expr(e.right)
        op = e.op
        if op in "+-*":
            pyop = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]

            def fn(st, R, A, _op=pyop, _l=lf, _r=rf, _lo=INT_MIN, _hi=INT_MAX):
                r = _op(_l(st, R, A), _r(st, R, A))
                if _lo <= r <= _hi:
                    return r
                raise _Fault

            return fn, 1 + lc + rc

        def fn(st, R, A, _l=lf, _r=rf, _div=op == "/"):
            a = _l(st, R, A)
            b = _r(st, R, A)
            if b == 0:
                raise _Fault
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            r = q if _div else a - q * b  # C remainder: sign of dividend
            if INT_MIN <= r <= INT_MAX:
                return r
            raise _Fault

        return fn, 1 + lc + rc

    def _c_ineg(self, e):
        def apply(vals):
            r = -vals[0]
            if INT_MIN <= r <= INT_MAX:
                return r
            raise _Fault

        return self._lift((e.operand,), apply)

    def _c_compare(self, e):
        lf, lc = self._expr(e.left)
        rf, rc = self._expr(e.right)

        def fn(st, R, A, _op=_cmp_impl(e.op, e.fp), _l=lf, _r=rf):
            return _op(_l(st, R, A), _r(st, R, A))

        return fn, 1 + lc + rc

    # -- short-circuit: the taken arm adds its own ticks ---------------------------

    def _c_logic(self, e):
        lf, lc = self._expr(e.left)
        rf, rc = self._expr(e.right)
        if e.op == "&&":
            def fn(st, R, A, _l=lf, _r=rf, _rc=rc):
                if _l(st, R, A) != 0:
                    st[0] += _rc
                    return 1 if _r(st, R, A) != 0 else 0
                return 0
        else:
            def fn(st, R, A, _l=lf, _r=rf, _rc=rc):
                if _l(st, R, A) != 0:
                    return 1
                st[0] += _rc
                return 1 if _r(st, R, A) != 0 else 0
        return fn, 1 + lc

    def _c_not(self, e):
        def apply(vals):
            return 0 if vals[0] != 0 else 1

        return self._lift((e.operand,), apply)

    def _c_select(self, e):
        cf, cc = self._expr(e.cond)
        tf, tc = self._expr(e.then)
        of, oc = self._expr(e.other)

        def fn(st, R, A, _c=cf, _t=tf, _tc=tc, _o=of, _oc=oc):
            if _c(st, R, A) != 0:
                st[0] += _tc
                return _t(st, R, A)
            st[0] += _oc
            return _o(st, R, A)

        return fn, 1 + cc

    # -- conversions -------------------------------------------------------------

    def _c_sitofp(self, e):
        def apply(vals, _c=self.env.canon_impl(e.ty)):
            return _c(float(vals[0]))

        return self._lift((e.operand,), apply)

    def _c_fptosi(self, e):
        def apply(vals):
            v = vals[0]
            if math.isnan(v) or math.isinf(v) or not INT_MIN <= v <= INT_MAX:
                raise _Fault
            return math.trunc(v)

        return self._lift((e.operand,), apply)

    def _c_fpext(self, e):
        f, c = self._expr(e.operand)
        return f, 1 + c  # float values are exact doubles

    def _c_fptrunc(self, e):
        # nan/inf pass through canon
        def apply(vals, _c=self.env.canon_impl("float")):
            return _c(vals[0])

        return self._lift((e.operand,), apply)

    # -- vectors -----------------------------------------------------------------

    def _c_vecsplat(self, e):
        def apply(vals, _n=e.lanes):
            return (vals[0],) * _n

        return self._lift((e.operand,), apply)

    def _c_veciota(self, e):
        def apply(vals, _n=e.lanes):
            base = vals[0]
            if not (INT_MIN <= base and base + _n - 1 <= INT_MAX):
                raise _Fault
            return tuple(range(base, base + _n))

        return self._lift((e.base,), apply)

    def _c_vecload(self, e):
        f_idx, c_idx = self._expr(e.index)

        def fn(st, R, A, _slot=self.arrays[e.name], _n=e.lanes, _f=f_idx):
            arr = A[_slot]
            if arr is None:
                raise _Fault
            idx = _f(st, R, A)
            if not 0 <= idx <= len(arr) - _n:
                raise _Fault
            out = tuple(arr[idx : idx + _n])
            if None in out:
                raise _Fault
            return out

        return fn, 1 + c_idx

    def _c_vecsitofp(self, e):
        def apply(vals, _c=self.env.canon_impl(e.ty)):
            return tuple(_c(float(v)) for v in vals[0])

        return self._lift((e.operand,), apply)

    def _c_vecbin(self, e):
        def apply(vals, _op=self.env.op_impl(e.op, e.ty)):
            return tuple(map(_op, vals[0], vals[1]))

        return self._lift((e.left, e.right), apply)

    def _c_vecneg(self, e):
        def apply(vals, _op=self.env.neg_impl(e.ty)):
            return tuple(map(_op, vals[0]))

        return self._lift((e.operand,), apply)

    def _c_vecfma(self, e):
        def apply(vals, _op=self.env.fma_impl(e.ty)):
            return tuple(map(_op, vals[0], vals[1], vals[2]))

        return self._lift((e.a, e.b, e.c), apply)

    def _c_veccall(self, e):
        # veccall_impl binds the vector math library when the environment
        # carries one (the vec-libm tier) and the scalar libm otherwise.
        def apply(vals, _op=self.env.veccall_impl(e.name, e.ty), _n=e.lanes):
            return tuple(
                _op(tuple(arg[j] for arg in vals)) for j in range(_n)
            )

        return self._lift(e.args, apply)

    def _c_vecfpext(self, e):
        f, c = self._expr(e.operand)
        return f, 1 + c  # float lanes are exact doubles

    def _c_vecfptrunc(self, e):
        # nan/inf pass through canon
        def apply(vals, _c=self.env.canon_impl("float")):
            return tuple(map(_c, vals[0]))

        return self._lift((e.operand,), apply)

    def _c_veccmp(self, e):
        def apply(vals, _op=_cmp_impl(e.op, fp=True)):
            return tuple(map(_op, vals[0], vals[1]))

        return self._lift((e.left, e.right), apply)

    def _c_vecselect(self, e):
        # Both arms evaluate in full — the if-conversion observable.
        def apply(vals):
            return tuple(
                t if m else o for m, t, o in zip(vals[0], vals[1], vals[2])
            )

        return self._lift((e.mask, e.then, e.other), apply)

    def _c_vecmaskedload(self, e):
        f_mask, c_mask = self._expr(e.mask)
        f_idx, c_idx = self._expr(e.index)

        def fn(st, R, A, _slot=self.arrays[e.name], _n=e.lanes, _inv=e.invert,
               _fm=f_mask, _fi=f_idx):
            mask = _fm(st, R, A)
            arr = A[_slot]
            if arr is None:
                raise _Fault
            idx = _fi(st, R, A)
            out = []
            for j in range(_n):
                active = not mask[j] if _inv else bool(mask[j])
                if active:
                    pos = idx + j
                    if not 0 <= pos < len(arr) or arr[pos] is None:
                        raise _Fault
                    out.append(arr[pos])
                else:
                    out.append(0.0)  # zeroing masking: no memory touch
            return tuple(out)

        return fn, 1 + c_mask + c_idx

    def _c_vecreduce(self, e):
        combine = self.env.op_impl(e.op, e.ty)
        style = e.style

        if style == "ladder":
            def apply(vals, _op=combine):
                lanes = vals[0]
                acc = lanes[0]
                for v in lanes[1:]:
                    acc = _op(acc, v)
                return acc
        elif style == "butterfly":
            def apply(vals, _op=combine):
                lanes = list(vals[0])
                n = len(lanes)
                while n > 1:
                    m = (n + 1) // 2
                    for j in range(n - m):
                        lanes[j] = _op(lanes[j], lanes[j + m])
                    n = m
                return lanes[0]
        else:
            def apply(vals, _op=combine):
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

        return self._lift((e.operand,), apply)

    def _unknown(self, e):  # pragma: no cover - exhaustive
        return _fault, 1

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
            vf, vc = self._expr(s.value)

            def fn(st, R, A, out, _slot=self.scalars[s.name], _vf=vf, _n=1 + vc):
                R[_slot] = _vf(st, R, A)
                s0 = st[0] + _n
                if s0 > st[1]:
                    raise _Fault
                st[0] = s0

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
            cf, cc = self._expr(s.cond)
            branch = self._emit([_BRANCH, cf, 0, 1 + cc, 1 + cc])
            self._block(s.then)
            if s.other:
                jump = self._emit([_JUMP, 0])
                self.code[branch][2] = len(self.code)
                self._block(s.other)
                self.code[jump][1] = len(self.code)
            else:
                self.code[branch][2] = len(self.code)
        elif isinstance(s, (ir.SFor, ir.SWhile)):
            # One tick for the statement; each iteration ticks once more.
            self._emit([_TICK, 1])
            if isinstance(s, ir.SFor):
                self._block(s.init)
            head = len(self.code)
            cf, cc = (_true, 0) if s.cond is None else self._expr(s.cond)
            loop = self._emit([_BRANCH, cf, 0, cc + 1, cc])
            self._block(s.body)
            if isinstance(s, ir.SFor):
                self._block(s.step)
            self._emit([_JUMP, head])
            self.code[loop][2] = len(self.code)
        elif isinstance(s, ir.SPrint):
            self._print(s)
        elif isinstance(s, ir.SReturn):
            self._emit([_RETURN])
        else:  # pragma: no cover - exhaustive
            self._emit([_EXEC, _fault])

    def _decl_array(self, s: ir.SDeclArray) -> None:
        slot = self.arrays[s.name]
        size = s.size
        if s.init is None:
            def fn(st, R, A, out, _slot=slot, _size=size):
                A[_slot] = [None] * _size
                _settle(st, 1)

            self._emit([_EXEC, fn])
            return
        vals_fn, n = self._children(s.init)

        def fn(st, R, A, out, _slot=slot, _size=size, _vf=vals_fn, _n=n):
            values: list = [float(v) for v in _vf(st, R, A)]
            if len(values) < _size:
                values.extend([0.0] * (_size - len(values)))
            A[_slot] = values
            _settle(st, _n)

        self._emit([_EXEC, fn])

    def _store_elem(self, s: ir.SStoreElem) -> None:
        fi, ci = self._expr(s.index)
        fv, cv = self._expr(s.value)

        def fn(st, R, A, out, _slot=self.arrays[s.name], _fi=fi, _fv=fv,
               _n=1 + ci + cv):
            arr = A[_slot]
            if arr is None:
                raise _Fault
            idx = _fi(st, R, A)
            if not 0 <= idx < len(arr):
                raise _Fault
            arr[idx] = float(_fv(st, R, A))
            _settle(st, _n)

        self._emit([_EXEC, fn])

    def _vec_store(self, s: ir.SVecStore) -> None:
        fi, ci = self._expr(s.index)
        fv, cv = self._expr(s.value)

        def fn(st, R, A, out, _slot=self.arrays[s.name], _w=s.lanes, _fi=fi,
               _fv=fv, _n=1 + ci + cv):
            arr = A[_slot]
            if arr is None:
                raise _Fault
            idx = _fi(st, R, A)
            if not 0 <= idx <= len(arr) - _w:
                raise _Fault
            values = _fv(st, R, A)
            for j in range(_w):
                arr[idx + j] = float(values[j])
            _settle(st, _n)

        self._emit([_EXEC, fn])

    def _masked_store(self, s: ir.SMaskedStore) -> None:
        slot = self.arrays[s.name]
        fm, cm = self._expr(s.mask)
        fi, ci = self._expr(s.index)
        fv, cv = self._expr(s.value)
        if s.lanes == 1:
            # Scalar predicated store short-circuits: a false mask skips
            # index, value and the write.
            def fn(st, R, A, out, _slot=slot, _fm=fm, _fi=fi, _fv=fv,
                   _skip=1 + cm, _n=1 + cm + ci + cv):
                if _fm(st, R, A) == 0:
                    _settle(st, _skip)
                    return
                arr = A[_slot]
                if arr is None:
                    raise _Fault
                idx = _fi(st, R, A)
                if not 0 <= idx < len(arr):
                    raise _Fault
                arr[idx] = float(_fv(st, R, A))
                _settle(st, _n)

            self._emit([_EXEC, fn])
            return

        def fn(st, R, A, out, _slot=slot, _w=s.lanes, _fm=fm, _fv=fv, _fi=fi,
               _n=1 + cm + ci + cv):
            mask = _fm(st, R, A)
            values = _fv(st, R, A)
            arr = A[_slot]
            if arr is None:
                raise _Fault
            idx = _fi(st, R, A)
            for j in range(_w):
                if not mask[j]:
                    continue
                pos = idx + j
                if not 0 <= pos < len(arr):
                    raise _Fault
                arr[pos] = float(values[j])
            _settle(st, _n)

        self._emit([_EXEC, fn])

    def _print(self, s: ir.SPrint) -> None:
        plan = printf_plan(s.fmt, len(s.values))
        if plan is None:  # more conversions than arguments
            self._emit([_EXEC, _fault])
            return
        vals_fn, n = self._children(s.values)

        def fn(st, R, A, out, _vf=vals_fn, _plan=plan, _n=n):
            args = _vf(st, R, A)
            try:
                text = render_printf(args, _plan)
            except TrapError:
                raise _Fault from None
            out[1].append(text)
            out[0].extend(v for v in args if isinstance(v, float))
            _settle(st, _n)

        self._emit([_EXEC, fn])
