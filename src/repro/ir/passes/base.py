"""Pass infrastructure: expression-rewriting over structured statements."""

from __future__ import annotations

from repro.fp.mathlib import MathLibrary
from repro.ir import nodes as ir

__all__ = ["Pass", "ExprRewritePass", "PassPipeline", "rebuild_expr"]


class _Rebuild:
    """``rebuild_expr``'s walker.

    A recursive closure would reach itself through its own cell, leaving
    a function<->cell cycle (and ``fn`` with it) for the cyclic GC after
    every rewrite; this callable holds no reference to itself.
    """

    __slots__ = ("fn",)

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, node: ir.Expr) -> ir.Expr:
        return self.fn(ir.map_children(node, self))


def rebuild_expr(e: ir.Expr, fn) -> ir.Expr:
    """Bottom-up rewrite: apply ``fn`` to every node after rewriting children.

    Subtrees ``fn`` leaves alone come back as the same objects, so
    ``rebuild_expr(e, lambda n: n) is e``.
    """
    return _Rebuild(fn)(e)


class _RewriteExprs:
    """``ExprRewritePass.run``'s walker: descends statements and rebuilds
    each expression it meets (a callable for the same reason as
    :class:`_Rebuild`)."""

    __slots__ = ("rebuild",)

    def __init__(self, rewrite) -> None:
        self.rebuild = _Rebuild(rewrite)

    def __call__(self, node):
        if isinstance(node, ir.STMT_NODES):
            return ir.map_children(node, self)
        return self.rebuild(node)


def _attrs_key(obj) -> tuple:
    """``obj``'s class plus every instance attribute, sorted by name; a
    nested :class:`MathLibrary` is keyed the same way."""
    return (
        type(obj),
        tuple(
            (name, _attrs_key(v) if isinstance(v, MathLibrary) else v)
            for name, v in sorted(vars(obj).items())
        ),
    )


class Pass:
    """A kernel-to-kernel transformation.

    A pass must be a pure function of its configuration (its instance
    attributes) and its input kernel: :meth:`key` names that
    configuration, and :meth:`PassPipeline.run` reuses results by it.
    """

    name: str = "pass"

    def run(self, kernel: ir.Kernel) -> ir.Kernel:
        raise NotImplementedError

    def key(self) -> tuple:
        """Hashable configuration: equal keys rewrite every kernel alike."""
        return _attrs_key(self)

    def prefix(self) -> tuple[Pass, ...]:
        """Passes :meth:`PassPipeline.run` applies, memoized, just before
        this one: a shared start that must not change this pass's output."""
        return ()


class ExprRewritePass(Pass):
    """Base for passes that only rewrite expressions in place."""

    def rewrite(self, e: ir.Expr) -> ir.Expr:
        raise NotImplementedError

    def run(self, kernel: ir.Kernel) -> ir.Kernel:
        """Rewrite every expression; the input kernel when nothing changed."""
        return ir.map_children(kernel, _RewriteExprs(self.rewrite))


class PassPipeline:
    """An ordered list of passes — the compiler model's optimizer."""

    def __init__(self, passes: list[Pass] | tuple[Pass, ...] = ()) -> None:
        self.passes = list(passes)

    def run(self, kernel: ir.Kernel, memo: dict | None = None) -> ir.Kernel:
        """Apply every pass in order, each after its :meth:`Pass.prefix`.

        A pass whose key already ran on this very kernel object reuses
        that output instead of running again.  Pass one ``memo`` dict per
        program to share results across pipelines; without one, a fresh
        dict serves this call only.  Entries hold their input kernel, so
        its ``id`` cannot be reused while the memo lives.
        """
        memo = {} if memo is None else memo
        for p in self.passes:
            for q in (*p.prefix(), p):
                slot = (q.key(), id(kernel))
                hit = memo.get(slot)
                if hit is None:
                    hit = memo[slot] = (kernel, q.run(kernel))
                kernel = hit[1]
        return kernel

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.passes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PassPipeline({self.names})"
