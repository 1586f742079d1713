"""Constant folding, optionally with compile-time libm evaluation.

Folding arithmetic on constants is semantics-preserving here (compile-time
IEEE equals run-time IEEE).  The interesting knob is ``fold_calls``: a real
compiler folds ``sin(0.5)`` with an MPFR-grade (correctly rounded)
evaluator, while at run time the linked libm is only faithfully rounded —
so folding *changes the printed result* whenever the two disagree: a
host-side inconsistency mechanism of the gcc and clang models.

``propagate`` additionally pushes const-initialized scalars into use sites
(a model of clang's more aggressive constant propagation), which reaches
call sites like ``double k = 0.5; ... sin(k)`` that literal-only folding
misses.
"""

from __future__ import annotations

import math
from operator import is_

import numpy as np

from repro.fp.fma import fma as fma_exact
from repro.fp.formats import FP32, FP64
from repro.fp.mathlib import CorrectlyRoundedLibm, MathLibrary
from repro.ir import nodes as ir
from repro.ir.passes.base import Pass, rebuild_expr

__all__ = ["ConstantFold"]

_CONST = (ir.FConst, ir.IConst)

#: The leaf statements whose expressions fold.
_FOLDED = (ir.SAssign, ir.SDeclArray, ir.SStoreElem, ir.SPrint)


def _f32(x: float) -> float:
    return float(np.float32(x))


def _rebuilt(s: ir.Stmt, *values) -> ir.Stmt:
    """``s`` itself when ``values`` are its own fields, else a new node of them."""
    if all(map(is_, values, (getattr(s, name) for name, _ in ir.FIELDS[type(s)]))):
        return s
    return type(s)(*values)


class ConstantFold(Pass):
    """Compile-time evaluation of constant subexpressions.

    ``fold_calls`` additionally folds constant-argument libm calls with a
    *correctly rounded* compile-time evaluator (``libm``, MPFR in a real
    compiler) — which may differ from the runtime library by an ulp, a
    modeled divergence source.  ``propagate`` lets const-initialized
    locals reach later use sites before folding (the clang model's more
    aggressive variant); without it only literal operands fold.  The
    propagating fold runs over the literal fold's output, its :meth:`prefix`.
    """

    name = "constant-fold"

    def __init__(
        self,
        fold_calls: bool = False,
        propagate: bool = False,
        libm: MathLibrary | None = None,
    ) -> None:
        self.fold_calls = fold_calls
        self.propagate = propagate
        self.libm = libm or CorrectlyRoundedLibm()

    def prefix(self) -> tuple[Pass, ...]:
        return (ConstantFold(self.fold_calls, False, self.libm),) if self.propagate else ()

    # -- driver ----------------------------------------------------------------

    def run(self, kernel: ir.Kernel) -> ir.Kernel:
        env: dict[str, ir.Expr] = {}
        return ir.map_children(kernel, lambda s: self._stmt(s, env))

    def _body(
        self, stmts: tuple[ir.Stmt, ...], env: dict[str, ir.Expr]
    ) -> tuple[ir.Stmt, ...]:
        out = tuple(self._stmt(s, env) for s in stmts)
        return stmts if all(map(is_, out, stmts)) else out

    def _stmt(self, s: ir.Stmt, env: dict[str, ir.Expr]) -> ir.Stmt:
        if isinstance(s, ir.SIf):
            cond = self._fold(s.cond, env)
            then_env = dict(env)
            other_env = dict(env)
            then = self._body(s.then, then_env)
            other = self._body(s.other, other_env)
            merged = {
                k: then_env[k]
                for k in then_env.keys() & other_env.keys()
                if then_env[k] == other_env[k]
            }
            env.clear()
            env.update(merged)
            return _rebuilt(s, cond, then, other)
        if isinstance(s, ir.SFor):
            init = self._body(s.init, env)
            for k in ir.assigned_names(s.body + s.step + s.init):
                env.pop(k, None)
            loop_env = dict(env)
            cond = self._fold(s.cond, loop_env) if s.cond is not None else None
            body = self._body(s.body, dict(loop_env))
            step = self._body(s.step, dict(loop_env))
            return _rebuilt(s, init, cond, step, body)
        if isinstance(s, ir.SWhile):
            for k in ir.assigned_names(s.body):
                env.pop(k, None)
            loop_env = dict(env)
            cond = self._fold(s.cond, loop_env)
            body = self._body(s.body, dict(loop_env))
            return _rebuilt(s, cond, body)
        if not isinstance(s, _FOLDED):
            return s
        out = ir.map_children(s, lambda e: self._fold(e, env))
        if isinstance(s, ir.SAssign):
            if self.propagate and isinstance(out.value, _CONST):
                env[s.name] = out.value
            else:
                env.pop(s.name, None)
        return out

    # -- expression folding ----------------------------------------------------------

    def _fold(self, e: ir.Expr, env: dict[str, ir.Expr]) -> ir.Expr:
        def step(node: ir.Expr) -> ir.Expr:
            return self._fold_node(node, env)

        return rebuild_expr(e, step)

    def _fold_node(self, e: ir.Expr, env: dict[str, ir.Expr]) -> ir.Expr:
        if isinstance(e, ir.Load) and self.propagate:
            known = env.get(e.name)
            if known is not None:
                return known
        if isinstance(e, ir.IBin) and isinstance(e.left, ir.IConst) and isinstance(
            e.right, ir.IConst
        ):
            return self._fold_ibin(e)
        if isinstance(e, ir.INeg) and isinstance(e.operand, ir.IConst):
            return ir.IConst(-e.operand.value)
        if isinstance(e, ir.FBin) and isinstance(e.left, ir.FConst) and isinstance(
            e.right, ir.FConst
        ):
            return self._fold_fbin(e)
        if isinstance(e, ir.FNeg) and isinstance(e.operand, ir.FConst):
            return ir.FConst(-e.operand.value, e.ty)
        if isinstance(e, ir.Fma) and all(
            isinstance(x, ir.FConst) for x in (e.a, e.b, e.c)
        ):
            fmt = FP32 if e.ty == "float" else FP64
            return ir.FConst(fma_exact(e.a.value, e.b.value, e.c.value, fmt), e.ty)
        if isinstance(e, ir.SiToFp) and isinstance(e.operand, ir.IConst):
            v = float(e.operand.value)
            return ir.FConst(_f32(v) if e.ty == "float" else v, e.ty)
        if isinstance(e, ir.FpExt) and isinstance(e.operand, ir.FConst):
            return ir.FConst(e.operand.value, "double")
        if isinstance(e, ir.FpTrunc) and isinstance(e.operand, ir.FConst):
            v = e.operand.value
            if math.isnan(v) or math.isinf(v):
                return ir.FConst(v, "float")
            return ir.FConst(_f32(v), "float")
        if isinstance(e, ir.FpToSi) and isinstance(e.operand, ir.FConst):
            v = e.operand.value
            if math.isfinite(v) and abs(v) < 2**31:
                return ir.IConst(math.trunc(v))
            return e  # out-of-range fp->int is UB; leave for the trap
        if isinstance(e, ir.Compare) and isinstance(e.left, _CONST) and isinstance(
            e.right, _CONST
        ):
            return self._fold_compare(e)
        if isinstance(e, ir.Not) and isinstance(e.operand, ir.IConst):
            return ir.IConst(0 if e.operand.value else 1)
        if isinstance(e, ir.Logic) and isinstance(e.left, ir.IConst):
            lv = bool(e.left.value)
            if e.op == "&&":
                return e.right if lv else ir.IConst(0)
            return ir.IConst(1) if lv else e.right
        if isinstance(e, ir.Select) and isinstance(e.cond, ir.IConst):
            return e.then if e.cond.value else e.other
        if (
            isinstance(e, ir.FCall)
            and self.fold_calls
            and all(isinstance(a, ir.FConst) for a in e.args)
        ):
            fmt = FP32 if e.ty == "float" else FP64
            args = tuple(a.value for a in e.args)
            return ir.FConst(self.libm.call(e.name, args, fmt), e.ty)
        return e

    @staticmethod
    def _fold_ibin(e: ir.IBin) -> ir.Expr:
        a, b = e.left.value, e.right.value
        if e.op == "+":
            return ir.IConst(a + b)
        if e.op == "-":
            return ir.IConst(a - b)
        if e.op == "*":
            return ir.IConst(a * b)
        if b == 0:
            return e  # UB at runtime; the interpreter traps
        if e.op == "/":
            return ir.IConst(int(a / b))  # C truncates toward zero
        return ir.IConst(a - int(a / b) * b)  # C remainder

    @staticmethod
    def _fold_fbin(e: ir.FBin) -> ir.Expr:
        a, b = e.left.value, e.right.value
        with np.errstate(all="ignore"):
            if e.ty == "float":
                fa, fb = np.float32(a), np.float32(b)
                ops = {"+": fa + fb, "-": fa - fb, "*": fa * fb}
                r = ops[e.op] if e.op in ops else np.divide(fa, fb)
            else:
                fa, fb = np.float64(a), np.float64(b)
                ops = {"+": fa + fb, "-": fa - fb, "*": fa * fb}
                r = ops[e.op] if e.op in ops else np.divide(fa, fb)
        return ir.FConst(float(r), e.ty)

    @staticmethod
    def _fold_compare(e: ir.Compare) -> ir.Expr:
        a = e.left.value
        b = e.right.value
        table = {
            "==": a == b,
            "!=": a != b,
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
        }
        return ir.IConst(1 if table[e.op] else 0)
