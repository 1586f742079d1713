"""Lowering: checked AST -> typed IR kernel.

All implicit C conversions become explicit nodes (``SiToFp``, ``FpExt``,
``FpTrunc``, ``FpToSi``), compound assignments and ``++``/``--`` are
expanded, and nested-scope shadowing is resolved by renaming, so the IR is
flat-named and every rounding step is visible to the passes and the
interpreter.
"""

from __future__ import annotations

from repro.errors import CompileError
from repro.frontend import ast
from repro.frontend.sema import SemaResult
from repro.fp.mathlib import MATH_FUNCTIONS
from repro.ir import nodes as ir
from repro.ir.nodes import expr_type

__all__ = ["lower_unit", "lower_compute"]


class _Renamer:
    """Maps source names to unique IR names across nested scopes."""

    def __init__(self) -> None:
        self._scopes: list[dict[str, str]] = [{}]
        self._counts: dict[str, int] = {}

    def push(self) -> None:
        self._scopes.append({})

    def pop(self) -> None:
        self._scopes.pop()

    def declare(self, name: str) -> str:
        n = self._counts.get(name, 0)
        self._counts[name] = n + 1
        unique = name if n == 0 else f"{name}__{n + 1}"
        self._scopes[-1][name] = unique
        return unique

    def resolve(self, name: str) -> str:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        raise CompileError(f"unresolved name {name!r} during lowering")


class _Lowerer:
    def __init__(self) -> None:
        self._names = _Renamer()
        self._var_types: dict[str, str] = {}

    # -- types ----------------------------------------------------------------

    @staticmethod
    def _convert(e: ir.Expr, to_ty: str) -> ir.Expr:
        frm = expr_type(e)
        if frm == to_ty:
            return e
        if frm == "int" and to_ty in ("float", "double"):
            return ir.SiToFp(e, to_ty)
        if frm in ("float", "double") and to_ty == "int":
            return ir.FpToSi(e)
        if frm == "float" and to_ty == "double":
            return ir.FpExt(e)
        if frm == "double" and to_ty == "float":
            return ir.FpTrunc(e)
        raise CompileError(f"cannot convert {frm} to {to_ty}")

    @staticmethod
    def _common(a: ir.Expr, b: ir.Expr) -> str:
        ta, tb = expr_type(a), expr_type(b)
        if "double" in (ta, tb):
            return "double"
        if "float" in (ta, tb):
            return "float"
        return "int"

    # -- kernel -----------------------------------------------------------------

    def lower(self, fn: ast.FunctionDef) -> ir.Kernel:
        params = []
        for p in fn.params:
            self._names.declare(p.name)
            ty = p.type.base + ("*" if p.type.pointers else "")
            params.append(ir.Param(p.name, ty))
            self._var_types[p.name] = ty
        body = self._block(fn.body)
        return ir.Kernel(fn.name, tuple(params), body, dict(self._var_types))

    def _block(self, block: ast.Block) -> tuple[ir.Stmt, ...]:
        self._names.push()
        out: list[ir.Stmt] = []
        for s in block.stmts:
            out.extend(self._stmt(s))
        self._names.pop()
        return tuple(out)

    # -- statements ----------------------------------------------------------------

    def _stmt(self, s: ast.Stmt) -> list[ir.Stmt]:
        if isinstance(s, ast.Decl):
            return self._decl(s)
        if isinstance(s, ast.Assign):
            return [self._assign(s)]
        if isinstance(s, ast.IncDec):
            return [self._incdec(s)]
        if isinstance(s, ast.ExprStmt):
            return self._expr_stmt(s)
        if isinstance(s, ast.Block):
            return list(self._block(s))
        if isinstance(s, ast.If):
            cond = self._expr(s.cond)
            then = self._block(s.then)
            other = self._block(s.other) if s.other is not None else ()
            return [ir.SIf(cond, then, other)]
        if isinstance(s, ast.For):
            self._names.push()
            init: tuple[ir.Stmt, ...] = ()
            if s.init is not None:
                init = tuple(self._stmt(s.init))
            cond = self._expr(s.cond) if s.cond is not None else None
            step: tuple[ir.Stmt, ...] = ()
            if s.step is not None:
                step = tuple(self._stmt(s.step))
            body = self._block(s.body)
            self._names.pop()
            return [ir.SFor(init, cond, step, body)]
        if isinstance(s, ast.While):
            return [ir.SWhile(self._expr(s.cond), self._block(s.body))]
        if isinstance(s, ast.Return):
            return [ir.SReturn()]
        raise CompileError(f"cannot lower statement {type(s).__name__}")

    def _decl(self, s: ast.Decl) -> list[ir.Stmt]:
        out: list[ir.Stmt] = []
        for d in s.declarators:
            unique = self._names.declare(d.name)
            if d.array_size is not None:
                self._var_types[unique] = s.base.base + "*"
                init = None
                if d.array_init is not None:
                    init = tuple(
                        self._convert(self._expr(e), s.base.base) for e in d.array_init
                    )
                out.append(ir.SDeclArray(unique, d.array_size, s.base.base, init))
            else:
                self._var_types[unique] = s.base.base
                if d.init is not None:
                    value = self._convert(self._expr(d.init), s.base.base)
                    out.append(ir.SAssign(unique, value, s.base.base))
                # uninitialized scalars only exist until first assignment;
                # sema proved no read precedes it, so no IR is needed here.
        return out

    def _assign(self, s: ast.Assign) -> ir.Stmt:
        value = self._expr(s.value)
        if isinstance(s.target, ast.Ident):
            name = self._names.resolve(s.target.name)
            ty = self._var_types[name]
            if s.op != "=":
                cur: ir.Expr = ir.Load(name, ty)
                value = self._apply_compound(s.op, cur, value)
            return ir.SAssign(name, self._convert(value, ty), ty)
        assert isinstance(s.target, ast.Index)
        base = s.target.base
        if not isinstance(base, ast.Ident):
            raise CompileError("stores through computed bases are not supported")
        name = self._names.resolve(base.name)
        elem_ty = self._var_types[name].rstrip("*")
        index = self._convert(self._expr(s.target.index), "int")
        if s.op != "=":
            cur = ir.LoadElem(name, index, elem_ty)
            value = self._apply_compound(s.op, cur, value)
        return ir.SStoreElem(name, index, self._convert(value, elem_ty), elem_ty)

    def _apply_compound(self, op: str, cur: ir.Expr, value: ir.Expr) -> ir.Expr:
        base_op = op[0]  # '+=' -> '+'
        common = self._common(cur, value)
        if common == "int":
            return ir.IBin(base_op, cur, value)
        return ir.FBin(base_op, self._convert(cur, common), self._convert(value, common), common)

    def _incdec(self, s: ast.IncDec) -> ir.Stmt:
        if not isinstance(s.target, ast.Ident):
            raise CompileError("++/-- on array elements is not supported")
        name = self._names.resolve(s.target.name)
        ty = self._var_types[name]
        op = "+" if s.op == "++" else "-"
        if ty == "int":
            return ir.SAssign(name, ir.IBin(op, ir.Load(name, "int"), ir.IConst(1)), ty)
        one = ir.FConst(1.0, ty)
        return ir.SAssign(name, ir.FBin(op, ir.Load(name, ty), one, ty), ty)

    def _expr_stmt(self, s: ast.ExprStmt) -> list[ir.Stmt]:
        e = s.expr
        if isinstance(e, ast.Call) and e.name == "printf":
            fmt = e.args[0]
            assert isinstance(fmt, ast.StrLit)
            values = tuple(self._expr(a) for a in e.args[1:])
            return [ir.SPrint(fmt.value, values)]
        # Any other expression statement is effect-free in this subset;
        # evaluate-and-discard has no observable so it lowers to nothing.
        return []

    # -- expressions -----------------------------------------------------------------

    def _expr(self, e: ast.Expr) -> ir.Expr:
        if isinstance(e, ast.IntLit):
            return ir.IConst(e.value)
        if isinstance(e, ast.FloatLit):
            if e.is_single:
                import struct

                v = struct.unpack("<f", struct.pack("<f", e.value))[0]
                return ir.FConst(v, "float")
            return ir.FConst(e.value, "double")
        if isinstance(e, ast.Ident):
            name = self._names.resolve(e.name)
            return ir.Load(name, self._var_types[name])
        if isinstance(e, ast.Unary):
            inner = self._expr(e.operand)
            if e.op == "+":
                return inner
            if e.op == "!":
                return ir.Not(inner)
            ty = expr_type(inner)
            if ty == "int":
                return ir.INeg(inner)
            return ir.FNeg(inner, ty)
        if isinstance(e, ast.Binary):
            return self._binary(e)
        if isinstance(e, ast.Ternary):
            cond = self._expr(e.cond)
            then = self._expr(e.then)
            other = self._expr(e.other)
            common = self._common(then, other)
            return ir.Select(
                cond,
                self._convert(then, common),
                self._convert(other, common),
                common,
            )
        if isinstance(e, ast.Call):
            spec = MATH_FUNCTIONS.get(e.name)
            if spec is None:
                raise CompileError(f"cannot lower call to {e.name!r}")
            # C libm entry points take and return double.
            args = tuple(self._convert(self._expr(a), "double") for a in e.args)
            return ir.FCall(e.name, args, "double")
        if isinstance(e, ast.Index):
            base = e.base
            if not isinstance(base, ast.Ident):
                raise CompileError("indexing computed bases is not supported")
            name = self._names.resolve(base.name)
            elem_ty = self._var_types[name].rstrip("*")
            index = self._convert(self._expr(e.index), "int")
            return ir.LoadElem(name, index, elem_ty)
        if isinstance(e, ast.Cast):
            return self._convert(self._expr(e.operand), e.type.base)
        raise CompileError(f"cannot lower expression {type(e).__name__}")

    def _binary(self, e: ast.Binary) -> ir.Expr:
        left = self._expr(e.left)
        right = self._expr(e.right)
        if e.op in ("&&", "||"):
            return ir.Logic(e.op, left, right)
        if e.op in ("==", "!=", "<", "<=", ">", ">="):
            common = self._common(left, right)
            fp = common != "int"
            return ir.Compare(
                e.op, self._convert(left, common), self._convert(right, common), fp
            )
        if e.op == "%":
            return ir.IBin("%", left, right)
        common = self._common(left, right)
        if common == "int":
            return ir.IBin(e.op, left, right)
        return ir.FBin(
            e.op, self._convert(left, common), self._convert(right, common), common
        )


def lower_compute(sema: SemaResult) -> ir.Kernel:
    """Lower the checked unit's ``compute`` function to an IR kernel."""
    fn = sema.unit.function("compute")
    return _Lowerer().lower(fn)


def lower_unit(sema: SemaResult) -> ir.Kernel:
    """Alias of :func:`lower_compute` — `compute` is the program's kernel."""
    return lower_compute(sema)
