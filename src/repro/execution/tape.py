"""Tape compiler: lower an IR kernel to structured closures.

The tree-walk :class:`~repro.execution.interp.Interpreter` pays per-step
AST dispatch (isinstance chains, dict lookups, numpy-boxed arithmetic)
on every node visit.  A :class:`Tape` is compiled once per ``(kernel,
environment)`` into closures that follow the program's own structure: a
block is one closure calling its statements in order, ``if`` is a Python
``if`` and loops are Python ``while`` loops, over pre-resolved
scalar-register and array slots, with all floating-point operation
*sites* pre-bound to the environment's specialized implementations
(:meth:`FPEnvironment.op_impl` and friends).  A leaf operand (a ``Load``
or a constant) is read in place by its parent, not called.

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
add their taken arm's ticks straight to the counter, and loops settle
every iteration, so a fault-free run's step total is exact and a run
that would cross the limit crosses it at the next settle.
"""

from __future__ import annotations

import operator
from types import FunctionType

from repro.errors import TrapError
from repro.execution.interp import Interpreter, printf_plan, render_printf
from repro.execution.limits import DEFAULT_MAX_STEPS, INT_MAX, INT_MIN, trunc_fits_int
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


class _Return(Exception):
    """An ``SReturn``: unwinds to :meth:`Tape.run`."""


def _fault(*_) -> None:
    raise _Fault


def _true(st, R, A) -> int:
    """The condition of a ``for`` loop without one."""
    return 1


def _settle(st: list, n: int) -> None:
    s = st[0] + n
    if s > st[1]:
        raise _Fault
    st[0] = s


def _return(st, R, A, out) -> None:
    _settle(st, 1)
    raise _Return


# Python's comparisons already follow IEEE: NaN makes only != true.
_CMP_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


_INT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _cmp_impl(op: str):
    def impl(a, b, _base=_CMP_OPS[op]):
        return 1 if _base(a, b) else 0

    return impl


# -- node shapes -----------------------------------------------------------------
#
# The nodes that read leaf operands in place are built from a fixed set of
# shapes: a computation over one or two operands, each a register
# (``_REG``, with the unset check), a constant (``_CONST``) or a compiled
# subexpression (``_SUB``), whose result is returned or, for an
# ``SAssign``, stored and settled.  A shape's code is built from these
# templates the first time a process meets it, so a process builds at
# most 3 + 9 per computation; nothing is generated per kernel.  A node's
# closure is that code with the node's defaults ``(op, *operands)``, plus
# ``(slot, ticks)`` for a store.
_REG, _CONST, _SUB = range(3)
_READS = (
    "{v} = R[_{v}]\n    if {v} is _UNSET:\n        raise _Fault\n    ",
    "",
    "{v} = _{v}(st, R, A)\n    ",
)
_COMPUTE = {
    "op": "r = _op({})",
    "cmp": "r = 1 if _op({}) else 0",
    "int": f"r = _op({{}})\n    if not {INT_MIN} <= r <= {INT_MAX}:\n"
           "        raise _Fault",
    "call": "r = _op(({},))",
    "float": "r = _op(float({}))",
}
_STORE = ("R[_s] = r\n    s = st[0] + _n\n    if s > st[1]:\n"
          "        raise _Fault\n    st[0] = s")
_SHAPES: dict = {}
_GLOBALS = globals()


def _shape(key: tuple):
    """The code of the shape ``(compute, store, *operand_kinds)``."""
    compute, store, *kinds = key
    names = "ab"[: len(kinds)]
    args = ", ".join("_" + v if k == _CONST else v for k, v in zip(kinds, names))
    params = "".join(f", _{v}=None" for v in names)
    src = (
        f"def fn(st, R, A{', out' if store else ''}, _op=None{params}"
        f"{', _s=None, _n=None' if store else ''}):\n"
        f"    {''.join(_READS[k].format(v=v) for k, v in zip(kinds, names))}"
        f"{_COMPUTE[compute].format(args)}\n"
        f"    {_STORE if store else 'return r'}\n"
    )
    ns: dict = {}
    exec(src, _GLOBALS, ns)
    code = _SHAPES[key] = ns["fn"].__code__
    return code


class Tape:
    """One kernel lowered for one environment, runnable on many inputs."""

    __slots__ = ("kernel", "env", "code", "n_regs", "n_arrays", "binders")

    def __init__(self, kernel: ir.Kernel, env: FPEnvironment, code,
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
            self.code(st, R, A, (printed, stdout))
        except _Return:
            pass
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
        for p in kernel.params:
            (self.arrays if p.is_pointer else self.scalars)[p.name]

    # -- compilation entry -------------------------------------------------------

    def compile(self) -> Tape:
        return Tape(
            self.kernel,
            self.env,
            self._block(self.kernel.body),
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

    def _binary(self, compute: str, op, left, right, store=None):
        """``compute`` over two operands, reading leaves in place.

        With a ``store`` name, the closure is an ``SAssign`` statement
        storing the result in that register and settling its ticks.  The
        operand classification is written out here and in :meth:`_unary`
        rather than shared: it runs for most nodes, and a helper call per
        operand made compilation measurably slower.
        """
        t = type(left)
        if t is ir.Load:
            kl, a, cost = _REG, self.scalars[left.name], 2
        elif t is ir.FConst or t is ir.IConst:
            kl, a, cost = _CONST, left.value, 2
        else:
            a, cost = self._expr(left)
            kl = _SUB
            cost += 1
        t = type(right)
        if t is ir.Load:
            kr, b = _REG, self.scalars[right.name]
            cost += 1
        elif t is ir.FConst or t is ir.IConst:
            kr, b = _CONST, right.value
            cost += 1
        else:
            b, c = self._expr(right)
            kr = _SUB
            cost += c
        key = (compute, store is not None, kl, kr)
        code = _SHAPES.get(key) or _shape(key)
        if store is None:
            return FunctionType(code, _GLOBALS, None, (op, a, b)), cost
        defaults = (op, a, b, self.scalars[store], cost + 1)
        return FunctionType(code, _GLOBALS, None, defaults)

    def _unary(self, compute: str, op, operand):
        """``compute`` over one operand, reading a leaf in place."""
        t = type(operand)
        if t is ir.Load:
            k, a, cost = _REG, self.scalars[operand.name], 2
        elif t is ir.FConst or t is ir.IConst:
            k, a, cost = _CONST, operand.value, 2
        else:
            a, cost = self._expr(operand)
            k = _SUB
            cost += 1
        key = (compute, False, k)
        code = _SHAPES.get(key) or _shape(key)
        return FunctionType(code, _GLOBALS, None, (op, a)), cost

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
        return self._binary("op", self.env.op_impl(e.op, e.ty), e.left, e.right)

    def _c_fneg(self, e):
        return self._unary("op", self.env.neg_impl(e.ty), e.operand)

    def _c_fma(self, e):
        def apply(vals, _op=self.env.fma_impl(e.ty)):
            return _op(vals[0], vals[1], vals[2])

        return self._lift((e.a, e.b, e.c), apply)

    def _c_fcall(self, e):
        if 1 <= len(e.args) <= 2:
            op = self.env.call_impl(e.name, e.ty)
            if len(e.args) == 1:
                return self._unary("call", op, e.args[0])
            return self._binary("call", op, *e.args)

        def apply(vals, _op=self.env.call_impl(e.name, e.ty)):
            return _op(tuple(vals))

        return self._lift(e.args, apply)

    # -- integers ----------------------------------------------------------------

    def _c_ibin(self, e):
        op = e.op
        if op in "+-*":
            return self._binary("int", _INT_OPS[op], e.left, e.right)
        lf, lc = self._expr(e.left)
        rf, rc = self._expr(e.right)

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
        return self._binary("cmp", _CMP_OPS[e.op], e.left, e.right)

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
        return self._unary("float", self.env.canon_impl(e.ty), e.operand)

    def _c_fptosi(self, e):
        def apply(vals):
            v = vals[0]
            if not trunc_fits_int(v):
                raise _Fault
            return int(v)

        return self._lift((e.operand,), apply)

    def _c_fpext(self, e):
        f, c = self._expr(e.operand)
        return f, 1 + c  # float values are exact doubles

    def _c_fptrunc(self, e):
        # nan/inf pass through canon
        return self._unary("op", self.env.canon_impl("float"), e.operand)

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
        def apply(vals, _op=_cmp_impl(e.op)):
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
    #
    # ``_stmt(s) -> fn``: ``fn(st, R, A, out)`` runs the statement and
    # settles its ticks.

    def _block(self, stmts):
        fns = [self._stmt(s) for s in stmts]
        if len(fns) == 1:
            return fns[0]

        def block(st, R, A, out, _fns=tuple(fns)):
            for f in _fns:
                f(st, R, A, out)

        return block

    def _stmt(self, s: ir.Stmt):
        return self._SDISPATCH.get(type(s), _Compiler._s_unknown)(self, s)

    def _s_unknown(self, s):  # pragma: no cover - exhaustive
        return _fault

    def _s_return(self, s):
        return _return

    def _s_assign(self, s: ir.SAssign):
        v = s.value
        t = type(v)
        if t is ir.FBin:
            return self._binary(
                "op", self.env.op_impl(v.op, v.ty), v.left, v.right, s.name
            )
        if t is ir.IBin and v.op in "+-*":
            return self._binary("int", _INT_OPS[v.op], v.left, v.right, s.name)
        vf, vc = self._expr(v)

        def fn(st, R, A, out, _slot=self.scalars[s.name], _vf=vf, _n=1 + vc):
            R[_slot] = _vf(st, R, A)
            s0 = st[0] + _n
            if s0 > st[1]:
                raise _Fault
            st[0] = s0

        return fn

    def _s_if(self, s: ir.SIf):
        cf, cc = self._expr(s.cond)
        then = self._block(s.then)
        other = self._block(s.other) if s.other else None

        def fn(st, R, A, out, _c=cf, _n=1 + cc, _t=then, _o=other):
            c = _c(st, R, A)
            s0 = st[0] + _n
            if s0 > st[1]:
                raise _Fault
            st[0] = s0
            if c:
                _t(st, R, A, out)
            elif _o is not None:
                _o(st, R, A, out)

        return fn

    def _s_loop(self, s):
        # One tick for the statement; each iteration that runs settles its
        # condition and one tick more, and the exit settles the condition.
        init = self._block(s.init) if isinstance(s, ir.SFor) and s.init else None
        cf, cc = (_true, 0) if s.cond is None else self._expr(s.cond)
        body = self._block(
            s.body + s.step if isinstance(s, ir.SFor) else s.body
        )

        def fn(st, R, A, out, _init=init, _c=cf, _n=cc, _b=body):
            _settle(st, 1)
            if _init is not None:
                _init(st, R, A, out)
            while _c(st, R, A):
                s0 = st[0] + _n + 1
                if s0 > st[1]:
                    raise _Fault
                st[0] = s0
                _b(st, R, A, out)
            _settle(st, _n)

        return fn

    def _s_decl_array(self, s: ir.SDeclArray):
        slot = self.arrays[s.name]
        size = s.size
        if s.init is None:
            def fn(st, R, A, out, _slot=slot, _size=size):
                A[_slot] = [None] * _size
                _settle(st, 1)

            return fn
        vals_fn, n = self._children(s.init)

        def fn(st, R, A, out, _slot=slot, _size=size, _vf=vals_fn, _n=n):
            values: list = [float(v) for v in _vf(st, R, A)]
            if len(values) < _size:
                values.extend([0.0] * (_size - len(values)))
            A[_slot] = values
            _settle(st, _n)

        return fn

    def _s_store_elem(self, s: ir.SStoreElem):
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

        return fn

    def _s_vec_store(self, s: ir.SVecStore):
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

        return fn

    def _s_masked_store(self, s: ir.SMaskedStore):
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

            return fn

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

        return fn

    def _s_print(self, s: ir.SPrint):
        plan = printf_plan(s.fmt, len(s.values))
        if plan is None:  # more conversions than arguments
            return _fault
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

        return fn

    _SDISPATCH = {
        ir.SAssign: _s_assign,
        ir.SDeclArray: _s_decl_array,
        ir.SStoreElem: _s_store_elem,
        ir.SVecStore: _s_vec_store,
        ir.SMaskedStore: _s_masked_store,
        ir.SIf: _s_if,
        ir.SFor: _s_loop,
        ir.SWhile: _s_loop,
        ir.SPrint: _s_print,
        ir.SReturn: _s_return,
    }
