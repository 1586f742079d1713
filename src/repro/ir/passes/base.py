"""Pass infrastructure: expression-rewriting over structured statements."""

from __future__ import annotations

from repro.ir import nodes as ir

__all__ = ["Pass", "ExprRewritePass", "PassPipeline", "rebuild_expr"]


def rebuild_expr(e: ir.Expr, fn) -> ir.Expr:
    """Bottom-up rewrite: apply ``fn`` to every node after rewriting children.

    Subtrees ``fn`` leaves alone come back as the same objects, so
    ``rebuild_expr(e, lambda n: n) is e``.
    """

    def go(node: ir.Expr) -> ir.Expr:
        return fn(ir.map_children(node, go))

    return go(e)


class Pass:
    """A kernel-to-kernel transformation."""

    name: str = "pass"

    def run(self, kernel: ir.Kernel) -> ir.Kernel:
        raise NotImplementedError


class ExprRewritePass(Pass):
    """Base for passes that only rewrite expressions in place."""

    def rewrite(self, e: ir.Expr) -> ir.Expr:
        raise NotImplementedError

    def run(self, kernel: ir.Kernel) -> ir.Kernel:
        """Rewrite every expression; the input kernel when nothing changed."""

        def go(node):
            if isinstance(node, ir.STMT_NODES):
                return ir.map_children(node, go)
            return rebuild_expr(node, self.rewrite)

        return ir.map_children(kernel, go)


class PassPipeline:
    """An ordered list of passes — the compiler model's optimizer."""

    def __init__(self, passes: list[Pass] | tuple[Pass, ...] = ()) -> None:
        self.passes = list(passes)

    def run(self, kernel: ir.Kernel) -> ir.Kernel:
        for p in self.passes:
            kernel = p.run(kernel)
        return kernel

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.passes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PassPipeline({self.names})"
