"""The IR interpreter.

Every floating-point operation routes through the binary's
:class:`~repro.fp.env.FPEnvironment`, so the interpreter is exact with
respect to the modeled machine: two binaries produce bit-identical output
iff their optimized IR and environments are observationally equal.

Undefined behaviour is *trapped*, not approximated: out-of-bounds element
access, reads of uninitialized array elements, integer division by zero,
signed integer overflow, and invalid float->int casts raise
:class:`~repro.errors.TrapError`, and the harness discards the program —
mirroring the paper's §4 plan of UB-sanitizer filtering.
"""

from __future__ import annotations

import math


from repro.errors import StepLimitExceeded, TrapError
from repro.execution.limits import (
    DEFAULT_MAX_STEPS,
    INT_MAX,
    INT_MIN,
    trunc_fits_int,
)
from repro.execution.result import ExecStatus, ExecutionResult
from repro.fp.env import FPEnvironment
from repro.ir import nodes as ir

__all__ = ["Interpreter"]


class _Return(Exception):
    """Non-local exit used for SReturn."""


class Interpreter:
    def __init__(
        self,
        kernel: ir.Kernel,
        env: FPEnvironment,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> None:
        self.kernel = kernel
        self.env = env
        self.max_steps = max_steps
        self._steps = 0
        self._scalars: dict[str, float | int] = {}
        self._arrays: dict[str, list[float | None]] = {}
        self._printed: list[float] = []
        self._stdout: list[str] = []

    # -- public API ---------------------------------------------------------

    def run(self, inputs: tuple) -> ExecutionResult:
        """Execute the kernel on one input vector.

        ``inputs`` has one entry per kernel parameter: a number for scalar
        parameters or a sequence of numbers for pointer parameters.
        """
        try:
            self._bind(inputs)
            try:
                self._exec_block(self.kernel.body)
            except _Return:
                pass
        except TrapError as e:
            return ExecutionResult(ExecStatus.TRAP, error=str(e), steps=self._steps)
        except StepLimitExceeded as e:
            return ExecutionResult(
                ExecStatus.STEP_LIMIT, error=str(e), steps=self._steps
            )
        return ExecutionResult(
            ExecStatus.OK,
            printed=tuple(self._printed),
            stdout="".join(self._stdout),
            steps=self._steps,
        )

    # -- setup ------------------------------------------------------------------

    def _bind(self, inputs: tuple) -> None:
        if len(inputs) != len(self.kernel.params):
            raise TrapError(
                f"kernel takes {len(self.kernel.params)} inputs, got {len(inputs)}"
            )
        for param, value in zip(self.kernel.params, inputs):
            if param.is_pointer:
                try:
                    elems = [float(v) for v in value]
                except TypeError:
                    raise TrapError(
                        f"parameter {param.name!r} needs a sequence input"
                    ) from None
                ty = param.scalar_ty
                self._arrays[param.name] = [self.env.canon(v, ty) for v in elems]
            elif param.ty == "int":
                self._scalars[param.name] = self._check_int(int(value))
            else:
                self._scalars[param.name] = self.env.canon(float(value), param.ty)

    # -- bookkeeping ----------------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise StepLimitExceeded(f"exceeded {self.max_steps} interpretation steps")

    @staticmethod
    def _check_int(v: int) -> int:
        if not INT_MIN <= v <= INT_MAX:
            raise TrapError(f"signed integer overflow: {v}")
        return v

    # -- statements --------------------------------------------------------------------

    def _exec_block(self, stmts: tuple[ir.Stmt, ...]) -> None:
        for s in stmts:
            self._exec_stmt(s)

    def _exec_stmt(self, s: ir.Stmt) -> None:
        self._tick()
        if isinstance(s, ir.SAssign):
            self._scalars[s.name] = self._eval(s.value)
        elif isinstance(s, ir.SDeclArray):
            if s.init is not None:
                values: list[float | None] = [self._as_float(self._eval(e)) for e in s.init]
                values.extend(0.0 for _ in range(s.size - len(values)))
            else:
                values = [None] * s.size
            self._arrays[s.name] = values
        elif isinstance(s, ir.SStoreElem):
            arr = self._array(s.name)
            idx = self._index(arr, s.index, s.name)
            arr[idx] = self._as_float(self._eval(s.value))
        elif isinstance(s, ir.SVecStore):
            arr = self._array(s.name)
            idx = self._vec_index(arr, s.index, s.lanes, s.name)
            lanes = self._eval(s.value)
            for j in range(s.lanes):
                arr[idx + j] = self._as_float(lanes[j])
        elif isinstance(s, ir.SMaskedStore):
            self._masked_store(s)
        elif isinstance(s, ir.SIf):
            if self._truthy(self._eval(s.cond)):
                self._exec_block(s.then)
            else:
                self._exec_block(s.other)
        elif isinstance(s, ir.SFor):
            self._exec_block(s.init)
            while s.cond is None or self._truthy(self._eval(s.cond)):
                self._tick()
                self._exec_block(s.body)
                self._exec_block(s.step)
        elif isinstance(s, ir.SWhile):
            while self._truthy(self._eval(s.cond)):
                self._tick()
                self._exec_block(s.body)
        elif isinstance(s, ir.SPrint):
            self._print(s)
        elif isinstance(s, ir.SReturn):
            raise _Return()
        else:  # pragma: no cover - exhaustive
            raise TrapError(f"cannot execute {type(s).__name__}")

    def _masked_store(self, s: ir.SMaskedStore) -> None:
        """Predicated store, at scalar (lanes=1) or vector width.

        The scalar form short-circuits exactly like the guarded store it
        replaced: the mask evaluates first, and a false predicate skips
        index, value *and* the write.  The vector form evaluates mask and
        value vectors in full (speculated lanes execute), then writes —
        and bounds-checks — only the active lanes.
        """
        if s.lanes == 1:
            if not self._truthy(self._eval(s.mask)):
                return
            arr = self._array(s.name)
            idx = self._index(arr, s.index, s.name)
            arr[idx] = self._as_float(self._eval(s.value))
            return
        mask = self._eval(s.mask)
        values = self._eval(s.value)
        arr = self._array(s.name)
        idx = self._eval(s.index)
        for j in range(s.lanes):
            if not mask[j]:
                continue
            pos = idx + j
            if not 0 <= pos < len(arr):
                raise TrapError(
                    f"index {pos} out of bounds for {s.name}[{len(arr)}]"
                )
            arr[pos] = self._as_float(values[j])

    def _print(self, s: ir.SPrint) -> None:
        args = [self._eval(v) for v in s.values]
        text = _c_printf(s.fmt, args)
        self._stdout.append(text)
        for v in args:
            if isinstance(v, float):
                self._printed.append(v)

    # -- expression evaluation ------------------------------------------------------------

    def _eval(self, e: ir.Expr):
        self._tick()
        env = self.env
        if isinstance(e, ir.FConst):
            return e.value
        if isinstance(e, ir.IConst):
            return e.value
        if isinstance(e, ir.Load):
            try:
                return self._scalars[e.name]
            except KeyError:
                raise TrapError(f"read of unset variable {e.name!r}") from None
        if isinstance(e, ir.LoadElem):
            arr = self._array(e.name)
            return self._read_elem(arr, self._eval(e.index), e.name)
        if isinstance(e, ir.FBin):
            a = self._eval(e.left)
            b = self._eval(e.right)
            if e.op == "+":
                return env.add(a, b, e.ty)
            if e.op == "-":
                return env.sub(a, b, e.ty)
            if e.op == "*":
                return env.mul(a, b, e.ty)
            return env.div(a, b, e.ty)
        if isinstance(e, ir.Fma):
            return env.fma(self._eval(e.a), self._eval(e.b), self._eval(e.c), e.ty)
        if isinstance(e, ir.FNeg):
            return env.neg(self._eval(e.operand), e.ty)
        if isinstance(e, ir.FCall):
            args = tuple(self._eval(a) for a in e.args)
            return env.call(e.name, args, e.ty)
        if isinstance(e, ir.IBin):
            return self._ibin(e)
        if isinstance(e, ir.INeg):
            return self._check_int(-self._eval(e.operand))
        if isinstance(e, ir.Compare):
            return self._compare(e)
        if isinstance(e, ir.Logic):
            lv = self._truthy(self._eval(e.left))
            if e.op == "&&":
                return int(lv and self._truthy(self._eval(e.right)))
            return int(lv or self._truthy(self._eval(e.right)))
        if isinstance(e, ir.Not):
            return int(not self._truthy(self._eval(e.operand)))
        if isinstance(e, ir.Select):
            if self._truthy(self._eval(e.cond)):
                return self._eval(e.then)
            return self._eval(e.other)
        if isinstance(e, ir.SiToFp):
            return self.env.canon(float(self._eval(e.operand)), e.ty)
        if isinstance(e, ir.FpToSi):
            v = self._eval(e.operand)
            if not trunc_fits_int(v):
                raise TrapError(f"invalid float->int conversion of {v!r}")
            return math.trunc(v)
        if isinstance(e, ir.FpExt):
            return self._eval(e.operand)  # float values are exact doubles
        if isinstance(e, ir.FpTrunc):
            v = self._eval(e.operand)
            if math.isnan(v) or math.isinf(v):
                return v
            return self.env.canon(v, "float")
        if isinstance(e, ir.ANY_VECTOR_NODES):
            return self._eval_vector(e)
        raise TrapError(f"cannot evaluate {type(e).__name__}")  # pragma: no cover

    def _eval_vector(self, e: ir.Expr):
        """Vector nodes evaluate to tuples of lanes; every lane routes
        through the environment exactly like the scalar op it widens, so
        vector execution is deterministic lane math."""
        env = self.env
        if isinstance(e, ir.VecConst):
            return e.values
        if isinstance(e, ir.VecSplat):
            return (self._eval(e.operand),) * e.lanes
        if isinstance(e, ir.VecIota):
            base = self._eval(e.base)
            return tuple(self._check_int(base + j) for j in range(e.lanes))
        if isinstance(e, ir.VecLoad):
            arr = self._array(e.name)
            idx = self._vec_index(arr, e.index, e.lanes, e.name)
            return tuple(
                self._read_elem(arr, idx + j, e.name) for j in range(e.lanes)
            )
        if isinstance(e, ir.VecSiToFp):
            return tuple(env.canon(float(v), e.ty) for v in self._eval(e.operand))
        if isinstance(e, ir.VecBin):
            left = self._eval(e.left)
            right = self._eval(e.right)
            op = {"+": env.add, "-": env.sub, "*": env.mul, "/": env.div}[e.op]
            return tuple(op(a, b, e.ty) for a, b in zip(left, right))
        if isinstance(e, ir.VecNeg):
            return tuple(env.neg(v, e.ty) for v in self._eval(e.operand))
        if isinstance(e, ir.VecFma):
            a, b, c = self._eval(e.a), self._eval(e.b), self._eval(e.c)
            return tuple(
                env.fma(x, y, z, e.ty) for x, y, z in zip(a, b, c)
            )
        if isinstance(e, ir.VecCall):
            # Lane calls resolve through the environment's *vector* math
            # library when one is bound (the vec-libm tier); without one
            # this is exactly the scalar libm per lane.
            args = [self._eval(a) for a in e.args]
            return tuple(
                env.veccall(e.name, tuple(arg[j] for arg in args), e.ty)
                for j in range(e.lanes)
            )
        if isinstance(e, ir.VecFpExt):
            return self._eval(e.operand)  # float lanes are exact doubles
        if isinstance(e, ir.VecFpTrunc):
            return tuple(
                v if math.isnan(v) or math.isinf(v) else env.canon(v, "float")
                for v in self._eval(e.operand)
            )
        if isinstance(e, ir.VecCmp):
            left = self._eval(e.left)
            right = self._eval(e.right)
            return tuple(
                self._cmp_values(e.op, a, b, fp=True) for a, b in zip(left, right)
            )
        if isinstance(e, ir.VecSelect):
            # Both arms evaluate in full — the if-conversion observable:
            # every lane executes both sides, the mask only blends.
            mask = self._eval(e.mask)
            then = self._eval(e.then)
            other = self._eval(e.other)
            return tuple(
                t if m else o for m, t, o in zip(mask, then, other)
            )
        if isinstance(e, ir.VecMaskedLoad):
            mask = self._eval(e.mask)
            arr = self._array(e.name)
            idx = self._eval(e.index)
            lanes = []
            for j in range(e.lanes):
                active = not mask[j] if e.invert else bool(mask[j])
                if active:
                    lanes.append(self._read_elem(arr, idx + j, e.name))
                else:
                    lanes.append(0.0)  # zeroing masking: no memory touch
            return tuple(lanes)
        assert isinstance(e, ir.VecReduce)
        lanes = list(self._eval(e.operand))
        combine = env.add if e.op == "+" else env.mul
        if e.style == "ladder":
            acc = lanes[0]
            for v in lanes[1:]:
                acc = combine(acc, v, e.ty)
            return acc
        if e.style == "butterfly":
            n = len(lanes)
            while n > 1:
                m = (n + 1) // 2
                for j in range(n - m):
                    lanes[j] = combine(lanes[j], lanes[j + m], e.ty)
                n = m
            return lanes[0]
        # adjacent: pairwise neighbours per round, odd lane carries over
        while len(lanes) > 1:
            nxt = [
                combine(lanes[j], lanes[j + 1], e.ty)
                for j in range(0, len(lanes) - 1, 2)
            ]
            if len(lanes) % 2:
                nxt.append(lanes[-1])
            lanes = nxt
        return lanes[0]

    def _ibin(self, e: ir.IBin) -> int:
        a = self._eval(e.left)
        b = self._eval(e.right)
        if e.op == "+":
            return self._check_int(a + b)
        if e.op == "-":
            return self._check_int(a - b)
        if e.op == "*":
            return self._check_int(a * b)
        if b == 0:
            raise TrapError("integer division by zero")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        if e.op == "/":
            return self._check_int(q)
        return self._check_int(a - q * b)  # C remainder: sign of dividend

    def _compare(self, e: ir.Compare) -> int:
        return self._cmp_values(e.op, self._eval(e.left), self._eval(e.right), e.fp)

    @staticmethod
    def _cmp_values(op: str, a, b, fp: bool) -> int:
        if fp and (math.isnan(a) or math.isnan(b)):
            return int(op == "!=")  # NaN: only != is true
        table = {
            "==": a == b,
            "!=": a != b,
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
        }
        return int(table[op])

    # -- helpers -------------------------------------------------------------------------

    @staticmethod
    def _as_float(v) -> float:
        return float(v)

    @staticmethod
    def _truthy(v) -> bool:
        if isinstance(v, float) and math.isnan(v):
            return True  # NaN is nonzero, hence true in C
        return v != 0

    def _array(self, name: str) -> list:
        try:
            return self._arrays[name]
        except KeyError:
            raise TrapError(f"no array named {name!r}") from None

    def _read_elem(self, arr: list, pos: int, name: str):
        """One bounds- and initialization-checked element read."""
        if not 0 <= pos < len(arr):
            raise TrapError(f"index {pos} out of bounds for {name}[{len(arr)}]")
        v = arr[pos]
        if v is None:
            raise TrapError(f"read of uninitialized element {name}[{pos}]")
        return v

    def _index(self, arr: list, index_expr: ir.Expr, name: str) -> int:
        idx = self._eval(index_expr)
        if not 0 <= idx < len(arr):
            raise TrapError(f"index {idx} out of bounds for {name}[{len(arr)}]")
        return idx

    def _vec_index(self, arr: list, index_expr: ir.Expr, lanes: int, name: str) -> int:
        idx = self._eval(index_expr)
        if not 0 <= idx <= len(arr) - lanes:
            raise TrapError(
                f"vector index {idx}..{idx + lanes - 1} out of bounds "
                f"for {name}[{len(arr)}]"
            )
        return idx


def printf_plan(fmt: str, nargs: int) -> list | None:
    """Scan a printf format once for ``nargs`` arguments.

    Returns a render plan of ``(kind, a, b)`` entries — literal text,
    ``%d``/``%i`` argument, or ``format()`` spec argument — or ``None``
    when the format consumes more conversions than arguments.  Handles
    %d, %i, %f, %e, %g with optional precision (an empty precision after
    ``.`` means 0, as in C), plus escapes.
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
                        prec = "6"
                        if "." in spec:
                            prec = spec[spec.index(".") + 1 :] or "0"
                        plan.append((2, ai, f".{prec}{conv}"))
                    ai += 1
                i = j + 1
                continue
        lit.append(c)
        i += 1
    flush()
    return plan


def render_printf(args: list, plan: list) -> str:
    """Render ``args`` through a :func:`printf_plan`; ``%d`` of a
    non-finite value traps."""
    parts = []
    for kind, a, b in plan:
        if kind == 0:
            parts.append(a)
        elif kind == 1:
            v = args[a]
            if not math.isfinite(v):
                raise TrapError(f"printf: integer conversion of {v!r}")
            parts.append(str(int(v)))
        else:
            parts.append(format(float(args[a]), b))
    return "".join(parts)


def _c_printf(fmt: str, args: list) -> str:
    """Tiny printf: :func:`printf_plan` then :func:`render_printf`."""
    plan = printf_plan(fmt, len(args))
    if plan is None:
        raise TrapError("printf: more conversions than arguments")
    return render_printf(args, plan)
