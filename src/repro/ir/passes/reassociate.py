"""Fast-math reassociation of floating-point chains.

Under ``-ffast-math`` a compiler may treat FP addition/multiplication as
associative.  Different compilers canonicalize chains differently, and any
regrouping of a >=3-term chain changes intermediate roundings — which is
why the paper sees its largest host-host divergence at ``O3_fastmath``
(Table 4, gcc-clang column).  Two styles are modeled:

* ``balanced`` — reduce the chain as a balanced tree (vectorizer-friendly
  partial sums; our gcc model), and
* ``ranked`` — sort operands by a deterministic structural rank and fold
  left (canonicalization; our clang model).

Subtraction is normalized to addition of a negation before flattening, so
``a - b + c`` chains participate too.
"""

from __future__ import annotations

import hashlib

from repro.ir import nodes as ir
from repro.ir.passes.base import ExprRewritePass

__all__ = ["Reassociate"]


def _flatten(e: ir.Expr, op: str, ty: str, out: list[ir.Expr]) -> None:
    """Collect the operand list of a +/* chain, normalizing '-' into '+'."""
    if isinstance(e, ir.FBin) and e.ty == ty:
        if e.op == op:
            _flatten(e.left, op, ty, out)
            _flatten(e.right, op, ty, out)
            return
        if op == "+" and e.op == "-":
            _flatten(e.left, op, ty, out)
            _flatten(ir.FNeg(e.right, ty), op, ty, out)
            return
    out.append(e)


def _rank(e: ir.Expr) -> str:
    """Deterministic structural key used by the 'ranked' style."""
    return hashlib.blake2b(repr(e).encode(), digest_size=8).hexdigest()


class Reassociate(ExprRewritePass):
    """Fast-math regrouping of >=3-term ``+``/``*`` chains: ``balanced``
    reduces as a pairwise tree (the gcc model), ``ranked`` sorts operands
    by structural hash and folds left (the clang model) — any regrouping
    changes intermediate roundings."""

    name = "reassociate"

    def __init__(self, style: str = "balanced") -> None:
        if style not in ("balanced", "ranked"):
            raise ValueError(f"unknown reassociation style {style!r}")
        self.style = style

    def rewrite(self, e: ir.Expr) -> ir.Expr:
        if not isinstance(e, ir.FBin) or e.op not in ("+", "*"):
            return e
        op, ty = e.op, e.ty
        terms: list[ir.Expr] = []
        _flatten(e, op, ty, terms)
        if len(terms) < 3:
            return e
        if self.style == "ranked":
            terms.sort(key=_rank)
            acc = terms[0]
            for t in terms[1:]:
                acc = ir.FBin(op, acc, t, ty)
        else:
            # balanced: pairwise reduction rounds
            level = terms
            while len(level) > 1:
                nxt: list[ir.Expr] = []
                for i in range(0, len(level) - 1, 2):
                    nxt.append(ir.FBin(op, level[i], level[i + 1], ty))
                if len(level) % 2:
                    nxt.append(level[-1])
                level = nxt
            acc = level[0]
        # A chain already in canonical form keeps its nodes.  The terms are
        # shared, so the comparison walks only the chain's own spine.
        return e if acc == e else acc
