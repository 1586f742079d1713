"""IR node definitions.

Expressions are immutable trees; statements form a structured CFG (no
gotos — the source subset is structured).  Every expression knows whether
it is floating-point (``fp``) or integer, and FP expressions carry their
precision ("float"/"double") so mixed-precision programs lower correctly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, is_dataclass
from operator import is_
from typing import NamedTuple, Union, get_args

# ----------------------------------------------------------------------- expressions


@dataclass(frozen=True, slots=True)
class FConst:
    value: float
    ty: str = "double"  # "float" | "double"


@dataclass(frozen=True, slots=True)
class IConst:
    value: int


@dataclass(frozen=True, slots=True)
class Load:
    """Read a scalar variable."""

    name: str
    ty: str  # "int" | "float" | "double"


@dataclass(frozen=True, slots=True)
class LoadElem:
    """Read an array/pointer element."""

    name: str
    index: "Expr"
    ty: str  # element type


@dataclass(frozen=True, slots=True)
class FBin:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"
    ty: str = "double"


@dataclass(frozen=True, slots=True)
class FNeg:
    operand: "Expr"
    ty: str = "double"


@dataclass(frozen=True, slots=True)
class Fma:
    """Fused a*b + c — produced only by the contraction pass."""

    a: "Expr"
    b: "Expr"
    c: "Expr"
    ty: str = "double"


@dataclass(frozen=True, slots=True)
class FCall:
    name: str
    args: tuple["Expr", ...]
    ty: str = "double"


@dataclass(frozen=True, slots=True)
class IBin:
    op: str  # + - * / %
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class INeg:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Compare:
    op: str  # == != < <= > >=
    left: "Expr"
    right: "Expr"
    fp: bool  # floating comparison vs integer comparison


@dataclass(frozen=True, slots=True)
class Logic:
    op: str  # && ||  (short-circuit)
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Select:
    """Ternary ?: — short-circuit select."""

    cond: "Expr"
    then: "Expr"
    other: "Expr"
    ty: str = "double"


@dataclass(frozen=True, slots=True)
class SiToFp:
    operand: "Expr"
    ty: str = "double"


# -- vector expressions (produced only by the vectorization tier) -------------
#
# A vector value is a fixed-width tuple of lanes.  Vector nodes are never
# produced by lowering — only :class:`~repro.ir.passes.vectorize.Vectorize`
# introduces them — and the interpreter evaluates each lane through the
# binary's FPEnvironment, so lane math is exactly as deterministic as the
# scalar math it widens.


@dataclass(frozen=True, slots=True)
class VecConst:
    """A literal vector, e.g. the reduction identity ``(0.0, 0.0, ...)``."""

    values: tuple[float, ...]
    ty: str = "double"  # element type

    @property
    def lanes(self) -> int:
        return len(self.values)


@dataclass(frozen=True, slots=True)
class VecSplat:
    """Broadcast of a loop-invariant scalar expression into every lane."""

    operand: "Expr"
    lanes: int
    ty: str = "double"


@dataclass(frozen=True, slots=True)
class VecIota:
    """The lane-stepped induction vector ``(base, base+1, ..., base+lanes-1)``.

    This is how a use of the induction variable inside a widened loop body
    survives vectorization: lane *j* observes ``i + j``.
    """

    base: "Expr"  # int expression (the scalar induction variable)
    lanes: int


@dataclass(frozen=True, slots=True)
class VecLoad:
    """A unit-stride vector load: elements ``name[index .. index+lanes-1]``."""

    name: str
    index: "Expr"
    lanes: int
    ty: str  # element type


@dataclass(frozen=True, slots=True)
class VecBin:
    """Lane-wise arithmetic; each lane rounds independently, like SIMD."""

    op: str  # + - * /
    left: "Expr"
    right: "Expr"
    lanes: int
    ty: str = "double"


@dataclass(frozen=True, slots=True)
class VecNeg:
    operand: "Expr"
    lanes: int
    ty: str = "double"


@dataclass(frozen=True, slots=True)
class VecFma:
    """Lane-wise fused multiply-add (a widened :class:`Fma` site)."""

    a: "Expr"
    b: "Expr"
    c: "Expr"
    lanes: int
    ty: str = "double"


@dataclass(frozen=True, slots=True)
class VecCall:
    """Lane-wise math-library call (each lane calls the binary's libm)."""

    name: str
    args: tuple["Expr", ...]
    lanes: int
    ty: str = "double"


@dataclass(frozen=True, slots=True)
class VecSiToFp:
    """Lane-wise int -> float conversion (widened ``SiToFp``)."""

    operand: "Expr"
    lanes: int
    ty: str = "double"


@dataclass(frozen=True, slots=True)
class VecFpExt:
    """Lane-wise float -> double widening (a widened :class:`FpExt`).

    Like its scalar counterpart, exact: every binary32 value is a
    binary64 value, so no lane rounds.
    """

    operand: "Expr"
    lanes: int


@dataclass(frozen=True, slots=True)
class VecFpTrunc:
    """Lane-wise double -> float narrowing (a widened :class:`FpTrunc`).

    Each lane rounds independently through the binary's environment —
    under FTZ the narrowing also flushes subnormal lanes, which is how
    mixed-precision bodies compose with fast-math device models.
    """

    operand: "Expr"
    lanes: int


# -- mask-typed vector nodes (the if-conversion tier) --------------------------
#
# A *mask* is a vector of lane predicates (0/1 ints).  If-conversion turns
# a conditional loop body into select form; widening that form evaluates
# BOTH arms in every lane and blends by mask — which is exactly how
# speculated lanes compute values (and rounding sequences) the scalar
# branchy loop never executes.


@dataclass(frozen=True, slots=True)
class VecCmp:
    """Lane-wise comparison producing a mask (1 where the predicate holds).

    NaN semantics match scalar :class:`Compare`: any NaN operand makes
    every ordered predicate false (and only ``!=`` true) in that lane.
    """

    op: str  # == != < <= > >=
    left: "Expr"
    right: "Expr"
    lanes: int


@dataclass(frozen=True, slots=True)
class VecSelect:
    """Lane-wise mask blend: ``mask[j] ? then[j] : other[j]``.

    Unlike the short-circuit scalar :class:`Select`, **both** operand
    vectors are fully evaluated — the defining semantics of if-converted
    lanes under SIMD/warp predication.
    """

    mask: "Expr"
    then: "Expr"
    other: "Expr"
    lanes: int
    ty: str = "double"


@dataclass(frozen=True, slots=True)
class VecMaskedLoad:
    """Unit-stride vector load with zeroing masking (AVX-512 style).

    Active lanes (mask true, or false when ``invert``) read
    ``name[index+j]`` with the usual bounds/uninitialized trapping;
    inactive lanes produce ``0.0`` without touching memory — so a load
    the scalar loop guarded (e.g. ``if (i > 0) ... a[i-1]``) cannot trap
    in lanes the guard would have skipped.
    """

    name: str
    index: "Expr"
    mask: "Expr"
    lanes: int
    ty: str  # element type
    invert: bool = False


#: Horizontal-reduction shapes.  The *shape* is the observable: each one
#: combines the same lanes in a different association order, so two
#: binaries reducing the same data with different shapes (or widths)
#: round differently and bitwise-diverge.
REDUCE_STYLES = ("adjacent", "butterfly", "ladder")


@dataclass(frozen=True, slots=True)
class VecReduce:
    """Horizontal reduction of a vector to one scalar.

    Styles (see :data:`REDUCE_STYLES`):

    * ``adjacent``  — pairwise neighbours per round: ``(l0+l1)+(l2+l3)``
      (SSE/AVX ``haddpd``-style; the gcc model).
    * ``butterfly`` — recursive halves: ``(l0+l2)+(l1+l3)`` for width 4
      (warp ``shfl_down``-style; the nvcc model).
    * ``ladder``    — sequential extract-and-accumulate:
      ``((l0+l1)+l2)+l3`` (scalarized extraction; the clang model).
    """

    op: str  # + *
    operand: "Expr"
    lanes: int
    ty: str = "double"
    style: str = "adjacent"


@dataclass(frozen=True, slots=True)
class FpToSi:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class FpExt:
    """float -> double widening."""

    operand: "Expr"


@dataclass(frozen=True, slots=True)
class FpTrunc:
    """double -> float narrowing (a rounding step)."""

    operand: "Expr"


Expr = Union[
    FConst,
    IConst,
    Load,
    LoadElem,
    FBin,
    FNeg,
    Fma,
    FCall,
    IBin,
    INeg,
    Compare,
    Logic,
    Not,
    Select,
    SiToFp,
    FpToSi,
    FpExt,
    FpTrunc,
    VecConst,
    VecSplat,
    VecIota,
    VecLoad,
    VecBin,
    VecNeg,
    VecFma,
    VecCall,
    VecSiToFp,
    VecFpExt,
    VecFpTrunc,
    VecCmp,
    VecSelect,
    VecMaskedLoad,
    VecReduce,
]

_FP_NODES = (FConst, FBin, FNeg, Fma, FCall, SiToFp, FpExt, FpTrunc)

#: Every vector-valued node (``VecReduce`` consumes a vector but produces
#: a scalar, so it is *not* in this set).
VECTOR_NODES = (
    VecConst, VecSplat, VecIota, VecLoad, VecBin, VecNeg, VecFma, VecCall,
    VecSiToFp, VecFpExt, VecFpTrunc, VecCmp, VecSelect, VecMaskedLoad,
)

#: Every node of the vector tier, vector-valued or not — the isinstance
#: filter shared by the interpreter's dispatch and the devectorizer.
ANY_VECTOR_NODES = VECTOR_NODES + (VecReduce,)


def expr_type(e: Expr) -> str:
    """Static *element* type of an IR expression: 'int', 'float' or 'double'.

    Vector nodes report their lane type; use :func:`lanes_of` to tell a
    vector from a scalar.
    """
    if isinstance(
        e, (IConst, IBin, INeg, Compare, Logic, Not, FpToSi, VecIota, VecCmp)
    ):
        return "int"
    if isinstance(e, (Load, LoadElem)):
        return e.ty
    if isinstance(e, (FpExt, VecFpExt)):
        return "double"
    if isinstance(e, (FpTrunc, VecFpTrunc)):
        return "float"
    if isinstance(e, Select):
        return e.ty
    return e.ty  # FConst, FBin, FNeg, Fma, FCall, SiToFp, Vec*


def is_fp(e: Expr) -> bool:
    return expr_type(e) in ("float", "double")


def lanes_of(e: Expr) -> int:
    """Vector width of an expression's value (1 for scalars)."""
    if isinstance(e, VECTOR_NODES):
        return e.lanes if not isinstance(e, VecConst) else len(e.values)
    return 1


# ----------------------------------------------------------------------- statements


@dataclass(frozen=True, slots=True)
class SAssign:
    """Scalar assignment ``name = value`` (compound ops already expanded)."""

    name: str
    value: Expr
    ty: str  # declared type of the variable


@dataclass(frozen=True, slots=True)
class SDeclArray:
    name: str
    size: int
    elem_ty: str
    init: tuple[Expr, ...] | None = None


@dataclass(frozen=True, slots=True)
class SStoreElem:
    name: str
    index: Expr
    value: Expr
    elem_ty: str


@dataclass(frozen=True, slots=True)
class SVecStore:
    """Unit-stride vector store: ``name[index .. index+lanes-1] = value``.

    ``value`` must be a vector expression of the same width; produced only
    by the vectorizer when it widens a map loop's element store.
    """

    name: str
    index: Expr
    value: Expr
    elem_ty: str
    lanes: int = 4


@dataclass(frozen=True, slots=True)
class SMaskedStore:
    """Predicated element store; the masked variant of a store.

    At ``lanes == 1`` this is the *scalar* predicated form if-conversion
    produces for a store that appears in only one arm: ``mask`` is a
    scalar condition, evaluated first, and the store (index, value and
    memory write) happens only when it is true — bit- and trap-identical
    to the original guarded store.  The vectorizer widens it in place:
    at ``lanes > 1`` the mask is a lane predicate vector and only active
    lanes are bounds-checked and written (AVX-512 ``vmovupd {k}`` /
    predicated warp store).
    """

    name: str
    index: Expr
    mask: Expr
    value: Expr
    elem_ty: str
    lanes: int = 1


@dataclass(frozen=True, slots=True)
class SIf:
    cond: Expr
    then: tuple["Stmt", ...]
    other: tuple["Stmt", ...] = ()


@dataclass(frozen=True, slots=True)
class SFor:
    """Structured counted loop: init; while(cond) { body; step; }"""

    init: tuple["Stmt", ...]
    cond: Expr | None
    step: tuple["Stmt", ...]
    body: tuple["Stmt", ...]


@dataclass(frozen=True, slots=True)
class SWhile:
    cond: Expr
    body: tuple["Stmt", ...]


@dataclass(frozen=True, slots=True)
class SPrint:
    """printf with a literal format (the program's observable output)."""

    fmt: str
    values: tuple[Expr, ...] = ()


@dataclass(frozen=True, slots=True)
class SReturn:
    pass


Stmt = Union[
    SAssign,
    SDeclArray,
    SStoreElem,
    SVecStore,
    SMaskedStore,
    SIf,
    SFor,
    SWhile,
    SPrint,
    SReturn,
]

STMT_NODES = get_args(Stmt)


# ----------------------------------------------------------------------- kernel


@dataclass(frozen=True, slots=True)
class Param:
    name: str
    ty: str  # 'int' | 'float' | 'double' | 'float*' | 'double*'

    @property
    def is_pointer(self) -> bool:
        return self.ty.endswith("*")

    @property
    def scalar_ty(self) -> str:
        return self.ty.rstrip("*")


@dataclass(frozen=True, slots=True)
class Kernel:
    """Lowered `compute` function: what a toolchain optimizes and runs."""

    name: str
    params: tuple[Param, ...]
    body: tuple[Stmt, ...]
    var_types: dict[str, str] = field(default_factory=dict, hash=False, compare=False)


# ----------------------------------------------------------------------- traversal
#
# A node's children are exactly its fields annotated with ``Expr`` or
# ``Stmt`` (bare, as a tuple, or ``| None``).  The table below is derived
# from those annotations once, at import, so a new node class needs no
# hand-written child list anywhere: ``children``, ``map_children`` and
# every walker pick it up from its dataclass fields.


class ChildField(NamedTuple):
    pos: int  # constructor position
    name: str
    seq: bool  # a tuple of nodes rather than one node
    stmt: bool  # statement-typed (a body) rather than expression-typed


_IR_TYPE = re.compile(r"\b(Expr|Stmt)\b")

#: Per IR node class, its child fields in declaration order.
CHILD_FIELDS: dict[type, tuple[ChildField, ...]] = {
    cls: tuple(
        ChildField(pos, f.name, f.type.startswith("tuple["), "Stmt" in f.type)
        for pos, f in enumerate(fields(cls))
        if _IR_TYPE.search(f.type)
    )
    for cls in list(globals().values())
    if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == __name__
}

#: Per IR node class, every field in declaration order as
#: ``(name, ChildField or None)``; ``None`` marks a non-child field.
FIELDS: dict[type, tuple[tuple[str, ChildField | None], ...]] = {
    cls: tuple(
        (f.name, {c.name: c for c in children}.get(f.name)) for f in fields(cls)
    )
    for cls, children in CHILD_FIELDS.items()
}


def _field_nodes(node, c: ChildField):
    v = getattr(node, c.name)
    return () if v is None else v if c.seq else (v,)


def children(node):
    """Yield ``node``'s direct children, in field order."""
    for c in CHILD_FIELDS[type(node)]:
        yield from _field_nodes(node, c)


def map_children(node, fn):
    """``node`` rebuilt with ``fn`` applied to each direct child.

    Returns ``node`` itself when every child comes back as the same
    object, so a rewrite that changes nothing allocates nothing and keeps
    ``id()``-keyed memos valid.
    """
    args = None
    for c in CHILD_FIELDS[type(node)]:
        old = getattr(node, c.name)
        if old is None:
            continue
        if c.seq:
            new = tuple(map(fn, old))
            if all(map(is_, new, old)):
                continue
        else:
            new = fn(old)
            if new is old:
                continue
        if args is None:
            args = [getattr(node, name) for name, _ in FIELDS[type(node)]]
        args[c.pos] = new
    return node if args is None else type(node)(*args)


def splice(node, fn):
    """``node`` with each statement of its bodies replaced one-to-many.

    ``fn(s)`` sees every statement of every body, pre-order.  It returns
    the statements that stand in for ``s``, which the walk does not
    enter, or ``None`` to keep ``s`` and splice its own bodies.  ``node``
    is a kernel or a statement, and comes back as the same object when no
    statement changed.
    """
    args = None
    for c in CHILD_FIELDS[type(node)]:
        if not c.stmt:
            continue
        old = getattr(node, c.name)
        new = []
        for s in old:
            out = fn(s)
            new.extend((splice(s, fn),) if out is None else out)
        if len(new) == len(old) and all(map(is_, new, old)):
            continue
        if args is None:
            args = [getattr(node, name) for name, _ in FIELDS[type(node)]]
        args[c.pos] = tuple(new)
    return node if args is None else type(node)(*args)


def walk(node):
    """Yield ``node`` and every node below it, pre-order."""
    yield node
    for child in children(node):
        yield from walk(child)


def walk_stmts(stmts: tuple[Stmt, ...]):
    """Yield every statement, pre-order, recursing into bodies."""
    for s in stmts:
        yield s
        for c in CHILD_FIELDS[type(s)]:
            if c.stmt:
                yield from walk_stmts(_field_nodes(s, c))


def stmt_exprs(s: Stmt):
    """Top-level expressions of one statement (no recursion into bodies)."""
    for c in CHILD_FIELDS[type(s)]:
        if not c.stmt:
            yield from _field_nodes(s, c)


def assigned_names(stmts: tuple[Stmt, ...]) -> set[str]:
    """Every scalar variable some statement in ``stmts`` assigns."""
    return {s.name for s in walk_stmts(stmts) if isinstance(s, SAssign)}


def reads_scalar(e: Expr, names) -> bool:
    """Whether ``e`` reads one of the scalar variables ``names``."""
    return any(isinstance(sub, Load) and sub.name in names for sub in walk(e))
