"""The IR traversal protocol: one child-field table per node class.

``ir.CHILD_FIELDS`` is derived from the dataclass annotations; these tests
check it against an independent reading of the same annotations (resolved
types, not text), then check that the protocol's rewrites keep unchanged
nodes on kernels from seeded campaigns at every compiler level.
"""

import copy
from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import pytest

from repro.difftest.engine import frontend_kernels
from repro.experiments.approaches import make_generator
from repro.ir import nodes as ir
from repro.ir.passes.base import ExprRewritePass, rebuild_expr
from repro.ir.passes.loop_unroll import substitute_induction
from repro.toolchains import ALL_LEVELS, default_compilers
from repro.utils.rng import SplittableRng

SEED = 20250916

#: (approach, tier profile, programs): the kernel corpus of the identity tests.
SOURCES = [
    ("varity", "baseline", 6),
    ("llm4fp", "baseline", 6),
    ("loops", "baseline", 6),
    ("loops", "full", 8),
]

IR_CLASSES = frozenset(get_args(ir.Expr) + ir.STMT_NODES)
NODE_CLASSES = [
    cls
    for cls in vars(ir).values()
    if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == ir.__name__
]


def _mentions(tp, classes) -> bool:
    return tp in classes or any(_mentions(a, classes) for a in get_args(tp))


def _is_tuple(tp) -> bool:
    return get_origin(tp) is tuple or any(get_origin(a) is tuple for a in get_args(tp))


def expected_child_fields(cls):
    """(name, seq, stmt) of every IR-typed field, from the resolved hints."""
    hints = get_type_hints(cls, vars(ir))
    return [
        (f.name, _is_tuple(hints[f.name]), _mentions(hints[f.name], ir.STMT_NODES))
        for f in fields(cls)
        if _mentions(hints[f.name], IR_CLASSES)
    ]


class TestChildTable:
    def test_every_node_class_has_an_entry(self):
        assert set(ir.CHILD_FIELDS) == set(NODE_CLASSES)
        assert IR_CLASSES <= set(ir.CHILD_FIELDS)

    @pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
    def test_table_lists_exactly_the_ir_typed_fields(self, cls):
        names = [f.name for f in fields(cls)]
        table = [(c.name, c.seq, c.stmt) for c in ir.CHILD_FIELDS[cls]]
        assert table == expected_child_fields(cls)
        for c in ir.CHILD_FIELDS[cls]:
            assert names[c.pos] == c.name


def _leaf(stmt: bool):
    return ir.SReturn() if stmt else ir.IConst(7)


def sample(cls):
    """An instance of ``cls`` whose every child is a distinct leaf object."""
    hints = get_type_hints(cls, vars(ir))
    children = {c.name: c for c in ir.CHILD_FIELDS[cls]}
    args = []
    for f in fields(cls):
        c = children.get(f.name)
        if c is not None:
            args.append(
                (_leaf(c.stmt), _leaf(c.stmt)) if c.seq else _leaf(c.stmt)
            )
            continue
        tp = hints[f.name]
        scalar = get_args(tp)[0] if get_origin(tp) is tuple else tp
        value = {str: "double", int: 4, float: 1.5, bool: False}.get(scalar)
        if get_origin(tp) is tuple:
            value = () if value is None else (value, value)
        elif get_origin(tp) is dict:
            value = {}
        args.append(value)
    return cls(*args)


class TestProtocolPerClass:
    @pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
    def test_children_map_children_and_walk(self, cls):
        node = sample(cls)
        kids = list(ir.children(node))
        assert len(kids) == sum(2 if c.seq else 1 for c in ir.CHILD_FIELDS[cls])
        assert ir.map_children(node, lambda n: n) is node
        copied = ir.map_children(node, copy.copy)
        assert copied == node
        if kids:
            assert copied is not node
            assert all(a is not b for a, b in zip(ir.children(copied), kids))
        assert list(ir.walk(node)) == [node, *kids]

    def test_optional_children_are_skipped(self):
        decl = ir.SDeclArray("a", 4, "double")
        assert list(ir.children(decl)) == []
        assert ir.map_children(decl, copy.copy) is decl
        loop = ir.SFor((), None, (), (ir.SReturn(),))
        assert list(ir.stmt_exprs(loop)) == []
        assert list(ir.walk_stmts((loop,))) == [loop, loop.body[0]]

    def test_only_changed_fields_are_rebuilt(self):
        left, right = ir.FConst(1.0), ir.FConst(2.0)
        node = ir.FBin("+", left, right, "double")
        swapped = ir.map_children(
            node, lambda n: ir.FConst(3.0) if n is right else n
        )
        assert swapped == ir.FBin("+", left, ir.FConst(3.0), "double")
        assert swapped.left is left


class _IdentityRewrite(ExprRewritePass):
    name = "identity"

    def rewrite(self, e):
        return e


def _pipeline_runs():
    """(pass, input kernel, output kernel) for every pass of every
    compiler's pipeline at every level, over the seeded corpus."""
    runs = []
    for approach, tiers, n in SOURCES:
        generator = make_generator(
            approach, SplittableRng(SEED, f"cli-{approach}"), tiers=tiers
        )
        compilers = default_compilers(tiers=tiers)
        for _ in range(n):
            frontend = frontend_kernels(generator.generate().source)
            for compiler in compilers:
                kernel0 = frontend.kernels.get(compiler.kind)
                if kernel0 is None:
                    continue
                for level in ALL_LEVELS:
                    kernel = kernel0
                    for p in compiler.pipeline(level).passes:
                        out = p.run(kernel)
                        runs.append((p, kernel, out))
                        kernel = out
    return runs


@pytest.fixture(scope="module")
def pipeline_runs():
    return _pipeline_runs()


@pytest.fixture(scope="module")
def kernels(pipeline_runs):
    unique = {}
    for _, kernel, out in pipeline_runs:
        unique.setdefault(id(kernel), kernel)
        unique.setdefault(id(out), out)
    return list(unique.values())


class TestIdentityOnCampaignKernels:
    def test_corpus_reaches_the_vector_tiers(self, kernels):
        seen = {type(n) for k in kernels for n in ir.walk(k)}
        for cls in (ir.VecReduce, ir.VecSelect, ir.VecMaskedLoad, ir.VecCall,
                    ir.VecFpTrunc, ir.SVecStore, ir.SIf, ir.SFor):
            assert cls in seen

    def test_rebuild_with_identity_returns_the_same_expression(self, kernels):
        for kernel in kernels:
            for s in ir.walk_stmts(kernel.body):
                for e in ir.stmt_exprs(s):
                    assert rebuild_expr(e, lambda n: n) is e

    def test_identity_rewrite_pass_returns_the_same_kernel(self, kernels):
        identity = _IdentityRewrite()
        for kernel in kernels:
            assert identity.run(kernel) is kernel

    def test_rewrite_passes_keep_kernels_they_leave_equal(self, pipeline_runs):
        assert {p.name for p, _, _ in pipeline_runs} == {
            "constant-fold", "fma-contract", "reassociate", "recip-div",
            "finite-math", "func-subst", "if-convert", "loop-unroll", "vectorize",
        }
        for p, kernel, out in pipeline_runs:
            if out == kernel:
                assert out is kernel, p.name

    def test_a_pass_rewrites_equal_inputs_alike(self, pipeline_runs):
        # The pass memo reuses a result by (pass key, input kernel); that
        # is sound only if a pass is a pure function of equal inputs.
        for p, kernel, out in pipeline_runs:
            assert p.run(copy.deepcopy(kernel)) == out, p.name

    def test_map_children_copy_compares_equal_for_every_node(self, kernels):
        for kernel in kernels:
            for node in ir.walk(kernel):
                assert ir.map_children(node, copy.copy) == node

    def test_walk_covers_what_the_statement_walkers_see(self, kernels):
        for kernel in kernels:
            stmts = list(ir.walk_stmts(kernel.body))
            exprs = [
                e
                for s in stmts
                for top in ir.stmt_exprs(s)
                for e in ir.walk(top)
            ]
            assert len(list(ir.walk(kernel))) == 1 + len(stmts) + len(exprs)


def test_reassociate_keeps_a_chain_already_in_canonical_form():
    from repro.ir.passes import Reassociate

    a, b, c = (ir.Load(n, "double") for n in "abc")
    chain = ir.FBin("+", ir.FBin("+", a, b, "double"), c, "double")
    kernel = ir.Kernel("compute", (), (ir.SAssign("x", chain, "double"),))
    assert Reassociate("balanced").run(kernel) is kernel


class TestSubstituteInduction:
    def test_compound_statements_are_refused(self):
        loop = ir.SFor((), None, (), ())
        with pytest.raises(ValueError, match="SFor"):
            substitute_induction(loop, "i", 1)

    def test_reads_of_the_induction_variable_are_offset(self):
        load = ir.Load("i", "int")
        store = ir.SStoreElem("a", load, ir.FConst(1.0), "double")
        out = substitute_induction(store, "i", 2)
        assert out.index == ir.IBin("+", load, ir.IConst(2))
        assert out.value is store.value
        assert substitute_induction(store, "i", 0) is store
