"""Abstract syntax tree for the C subset.

Nodes are frozen dataclasses; expression types are filled in by the
semantic checker (stored out-of-band in :class:`~repro.frontend.sema.TypeMap`
so the AST stays immutable and shareable between pipelines).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Union

from repro.frontend.ctypes import CType

# --------------------------------------------------------------------------- expressions


@dataclass(frozen=True, slots=True)
class IntLit:
    value: int
    text: str = ""


@dataclass(frozen=True, slots=True)
class FloatLit:
    value: float
    text: str = ""
    is_single: bool = False  # had an 'f' suffix


@dataclass(frozen=True, slots=True)
class StrLit:
    value: str


@dataclass(frozen=True, slots=True)
class Ident:
    name: str


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # '-', '!', '+'
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str  # + - * / % == != < <= > >= && ||
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Ternary:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


@dataclass(frozen=True, slots=True)
class Call:
    name: str
    args: tuple["Expr", ...]


@dataclass(frozen=True, slots=True)
class Index:
    base: "Expr"
    index: "Expr"


@dataclass(frozen=True, slots=True)
class Cast:
    type: CType
    operand: "Expr"


Expr = Union[IntLit, FloatLit, StrLit, Ident, Unary, Binary, Ternary, Call, Index, Cast]

# --------------------------------------------------------------------------- statements


@dataclass(frozen=True, slots=True)
class Declarator:
    """One declarator in a declaration: name, optional size, optional init."""

    name: str
    array_size: int | None = None
    init: Expr | None = None
    array_init: tuple[Expr, ...] | None = None


@dataclass(frozen=True, slots=True)
class Decl:
    base: CType  # scalar base type of the declaration (no array part)
    declarators: tuple[Declarator, ...]


@dataclass(frozen=True, slots=True)
class Assign:
    """``target op value`` where op is one of = += -= *= /=."""

    target: Expr  # Ident or Index
    op: str
    value: Expr


@dataclass(frozen=True, slots=True)
class IncDec:
    """``x++`` / ``x--`` as a statement (also appears in for-steps)."""

    target: Expr
    op: str  # '++' or '--'


@dataclass(frozen=True, slots=True)
class ExprStmt:
    expr: Expr


@dataclass(frozen=True, slots=True)
class Block:
    stmts: tuple["Stmt", ...]


@dataclass(frozen=True, slots=True)
class If:
    cond: Expr
    then: Block
    other: Block | None = None


@dataclass(frozen=True, slots=True)
class For:
    init: Union["Decl", "Assign", None]
    cond: Expr | None
    step: Union["Assign", "IncDec", None]
    body: Block


@dataclass(frozen=True, slots=True)
class While:
    cond: Expr
    body: Block


@dataclass(frozen=True, slots=True)
class Return:
    value: Expr | None = None


Stmt = Union[Decl, Assign, IncDec, ExprStmt, Block, If, For, While, Return]

# --------------------------------------------------------------------------- top level


@dataclass(frozen=True, slots=True)
class Param:
    type: CType
    name: str


@dataclass(frozen=True, slots=True)
class FunctionDef:
    return_type: CType
    name: str
    params: tuple[Param, ...]
    body: Block
    #: CUDA execution-space qualifier ("__global__", ...) or None for plain C.
    qualifier: str | None = None


@dataclass(frozen=True, slots=True)
class TranslationUnit:
    includes: tuple[str, ...]
    functions: tuple[FunctionDef, ...]

    def function(self, name: str) -> FunctionDef:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")


# --------------------------------------------------------------------------- traversal


def walk_exprs(e: Expr):
    """Yield ``e`` and every sub-expression, pre-order."""
    yield e
    if isinstance(e, Unary):
        yield from walk_exprs(e.operand)
    elif isinstance(e, Binary):
        yield from walk_exprs(e.left)
        yield from walk_exprs(e.right)
    elif isinstance(e, Ternary):
        yield from walk_exprs(e.cond)
        yield from walk_exprs(e.then)
        yield from walk_exprs(e.other)
    elif isinstance(e, Call):
        for a in e.args:
            yield from walk_exprs(a)
    elif isinstance(e, Index):
        yield from walk_exprs(e.base)
        yield from walk_exprs(e.index)
    elif isinstance(e, Cast):
        yield from walk_exprs(e.operand)


def walk_stmts(s: Stmt):
    """Yield ``s`` and every nested statement, pre-order."""
    yield s
    if isinstance(s, Block):
        for inner in s.stmts:
            yield from walk_stmts(inner)
    elif isinstance(s, If):
        yield from walk_stmts(s.then)
        if s.other is not None:
            yield from walk_stmts(s.other)
    elif isinstance(s, (For, While)):
        if isinstance(s, For) and s.init is not None:
            yield from walk_stmts(s.init)
        yield from walk_stmts(s.body)


def stmt_exprs(s: Stmt):
    """Yield the top-level expressions appearing directly in statement ``s``."""
    if isinstance(s, Decl):
        for d in s.declarators:
            if d.init is not None:
                yield d.init
            if d.array_init is not None:
                yield from d.array_init
    elif isinstance(s, Assign):
        yield s.target
        yield s.value
    elif isinstance(s, IncDec):
        yield s.target
    elif isinstance(s, ExprStmt):
        yield s.expr
    elif isinstance(s, If):
        yield s.cond
    elif isinstance(s, For):
        if s.cond is not None:
            yield s.cond
    elif isinstance(s, While):
        yield s.cond
    elif isinstance(s, Return) and s.value is not None:
        yield s.value


# --------------------------------------------------------------------------- structural editing
#
# Nodes are frozen, so edits rebuild the spine from the root.  A *step* is
# ``(field_name, index)`` — ``index`` is ``None`` for a direct child and a
# tuple position for children stored in tuple-valued fields — and a *path*
# is a tuple of steps from some root node.  The triage reducer uses these
# to enumerate and apply candidate edits anywhere in a translation unit.

#: Concrete classes of the Expr/Stmt unions, usable with ``isinstance``.
EXPR_TYPES = (IntLit, FloatLit, StrLit, Ident, Unary, Binary, Ternary, Call, Index, Cast)
STMT_TYPES = (Decl, Assign, IncDec, ExprStmt, Block, If, For, While, Return)

Step = tuple[str, "int | None"]
Path = tuple[Step, ...]


#: Every node class of this module.
_NODE_CLASSES = [
    cls
    for cls in list(globals().values())
    if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == __name__
]

_NODE_TYPE = re.compile(
    r"\b(%s)\b" % "|".join(["Expr", "Stmt"] + [cls.__name__ for cls in _NODE_CLASSES])
)

#: Per node class, its child fields in declaration order: the fields whose
#: annotation names a node class or the ``Expr``/``Stmt`` unions (bare, as
#: a tuple, or ``| None``).  Leaves map to ``()``.
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls) if _NODE_TYPE.search(f.type))
    for cls in _NODE_CLASSES
}


def child_steps(node):
    """Yield ``(step, child)`` for every direct AST child of ``node``.

    Children inside tuple-valued fields (block statements, call arguments,
    declarators, ...) get an indexed step; scalar fields (types, names,
    literal values) are not child fields.
    """
    for name in CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        if type(value) is tuple:
            for i, item in enumerate(value):
                yield (name, i), item
        elif value is not None:
            yield (name, None), value


def depth(root) -> int:
    """Levels of the tree under ``root`` (a leaf has depth 1).

    Iterative, so it measures trees too deep for the recursive passes.
    """
    deepest = 0
    stack = [(root, 1)]
    while stack:
        node, level = stack.pop()
        if level > deepest:
            deepest = level
        for _, child in child_steps(node):
            stack.append((child, level + 1))
    return deepest


def child_at(node, step: Step):
    """The child of ``node`` addressed by one step."""
    name, index = step
    value = getattr(node, name)
    return value if index is None else value[index]


def with_child(node, step: Step, new):
    """``node`` with the child at ``step`` replaced by ``new``."""
    name, index = step
    if index is None:
        return replace(node, **{name: new})
    value = getattr(node, name)
    return replace(node, **{name: value[:index] + (new,) + value[index + 1 :]})


def node_at(root, path: Path):
    """The node reached by following ``path`` from ``root``."""
    for step in path:
        root = child_at(root, step)
    return root


def replace_at(root, path: Path, new):
    """``root`` with the node at ``path`` replaced by ``new`` (spine rebuilt)."""
    if not path:
        return new
    child = child_at(root, path[0])
    return with_child(root, path[0], replace_at(child, path[1:], new))


def walk_paths(root, base: Path = ()):
    """Yield ``(path, node)`` for ``root`` and every descendant, pre-order.

    Paths are relative to ``root``; the traversal order is deterministic
    (field order, then tuple position), which the triage reducer relies on
    for reproducible minimal programs.
    """
    yield base, root
    for step, child in child_steps(root):
        yield from walk_paths(child, base + (step,))


def node_count(root) -> int:
    """Number of AST nodes in the subtree — the reducer's size metric."""
    return sum(1 for _ in walk_paths(root))
