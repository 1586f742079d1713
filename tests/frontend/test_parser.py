"""Parser: program structure, statements, expression precedence."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParseError, ReproError
from repro.frontend import ast
from repro.frontend.parser import MAX_AST_DEPTH, Parser, parse_program
from repro.frontend.printer import expr_to_c

PROGRAM = """
#include <stdio.h>
#include <math.h>

void compute(double a, double b, int n, double *arr) {
  double comp = 0.0;
  double tmp[4] = {1.0, 2.0, 3.0, 4.0};
  for (int i = 0; i < n; ++i) {
    tmp[1] = a * b + tmp[0];
    if (tmp[1] > 1.0e3) {
      comp += sin(a) / (b + 1.5);
    } else {
      comp -= cos(b);
    }
  }
  comp = comp + arr[0];
  printf("%.17g\\n", comp);
}

int main(int argc, char **argv) {
  double data[2] = {0.5, 0.25};
  compute(atof(argv[1]), atof(argv[2]), atoi(argv[3]), data);
  return 0;
}
"""


def parse_expr(text):
    unit = parse_program(f"void compute(double x) {{ double c = {text}; }}")
    decl = unit.functions[0].body.stmts[0]
    return decl.declarators[0].init


class TestProgramStructure:
    def test_parses_full_program(self):
        unit = parse_program(PROGRAM)
        assert [f.name for f in unit.functions] == ["compute", "main"]
        assert unit.includes == ("stdio.h", "math.h")

    def test_compute_params(self):
        fn = parse_program(PROGRAM).function("compute")
        assert [p.name for p in fn.params] == ["a", "b", "n", "arr"]
        assert fn.params[3].type.pointers == 1

    def test_missing_function_lookup(self):
        with pytest.raises(KeyError):
            parse_program(PROGRAM).function("nope")

    def test_empty_source_rejected(self):
        with pytest.raises(ParseError):
            parse_program("")

    def test_array_param_decays(self):
        unit = parse_program("void compute(double a[]) { double c = a[0]; }")
        assert unit.functions[0].params[0].type.pointers == 1


class TestStatements:
    def test_multi_declarator(self):
        unit = parse_program("void compute(double x) { double a = 1.0, b = 2.0; }")
        decl = unit.functions[0].body.stmts[0]
        assert len(decl.declarators) == 2

    def test_array_decl_sizes(self):
        unit = parse_program("void compute(double x) { double a[8]; }")
        decl = unit.functions[0].body.stmts[0]
        assert decl.declarators[0].array_size == 8

    def test_array_size_must_be_literal(self):
        with pytest.raises(ParseError):
            parse_program("void compute(int n) { double a[n]; }")

    def test_compound_assignment(self):
        unit = parse_program("void compute(double x) { double c = 0.0; c *= x; }")
        assign = unit.functions[0].body.stmts[1]
        assert isinstance(assign, ast.Assign) and assign.op == "*="

    def test_if_else_chain(self):
        unit = parse_program(
            "void compute(double x) { double c=0.0;"
            " if (x > 0.0) c = 1.0; else if (x < 0.0) c = 2.0; else c = 3.0; }"
        )
        stmt = unit.functions[0].body.stmts[1]
        assert isinstance(stmt, ast.If)
        assert isinstance(stmt.other.stmts[0], ast.If)

    def test_for_variants(self):
        unit = parse_program(
            "void compute(int n) {"
            " double c = 0.0;"
            " for (int i = 0; i < n; i++) { c += 1.0; }"
            " for (int j = 0; j < 4; ++j) { c += 2.0; }"
            " int k;"
            " for (k = 0; k < 2; k = k + 1) { c += 3.0; }"
            "}"
        )
        loops = [s for s in unit.functions[0].body.stmts if isinstance(s, ast.For)]
        assert len(loops) == 3
        assert isinstance(loops[2].init, ast.Assign)

    def test_while(self):
        unit = parse_program(
            "void compute(double x) { double c = x; while (c > 1.0) { c /= 2.0; } }"
        )
        assert isinstance(unit.functions[0].body.stmts[1], ast.While)

    def test_nested_blocks(self):
        unit = parse_program("void compute(double x) { { double y = x; } }")
        assert isinstance(unit.functions[0].body.stmts[0], ast.Block)

    def test_cuda_launch_syntax(self):
        unit = parse_program(
            "void compute(double x) { double c = x; }"
            "int main() { compute<<<1,1>>>(2.0); return 0; }"
        )
        call = unit.function("main").body.stmts[0].expr
        assert isinstance(call, ast.Call) and call.name == "compute"


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expr("1.0 + 2.0 * 3.0")
        assert isinstance(e, ast.Binary) and e.op == "+"
        assert isinstance(e.right, ast.Binary) and e.right.op == "*"

    def test_parens_override(self):
        e = parse_expr("(1.0 + 2.0) * 3.0")
        assert e.op == "*"
        assert isinstance(e.left, ast.Binary) and e.left.op == "+"

    def test_left_associative(self):
        e = parse_expr("1.0 - 2.0 - 3.0")
        assert e.op == "-" and isinstance(e.left, ast.Binary)

    def test_unary_minus(self):
        e = parse_expr("-x * 2.0")
        assert e.op == "*" and isinstance(e.left, ast.Unary)

    def test_ternary(self):
        e = parse_expr("x > 0.0 ? 1.0 : 2.0")
        assert isinstance(e, ast.Ternary)

    def test_ternary_right_assoc(self):
        e = parse_expr("x > 0.0 ? 1.0 : x < 0.0 ? 2.0 : 3.0")
        assert isinstance(e.other, ast.Ternary)

    def test_call_args(self):
        e = parse_expr("pow(x, 2.0) + atan2(x, 1.0)")
        assert e.left.name == "pow" and len(e.left.args) == 2

    def test_cast(self):
        e = parse_expr("(double)1 / 3.0")
        assert e.op == "/"
        assert isinstance(e.left, ast.Cast)

    def test_nested_index(self):
        unit = parse_program("void compute(double *a) { double c = a[1 + 2]; }")
        init = unit.functions[0].body.stmts[0].declarators[0].init
        assert isinstance(init, ast.Index)

    def test_logical_ops(self):
        e = parse_expr("x > 0.0 && x < 1.0 || x == 2.0")
        assert e.op == "||"

    def test_missing_paren_rejected(self):
        with pytest.raises(ParseError):
            parse_program("void compute(double x) { double c = (x + 1.0; }")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_program("void compute(double x) { double c = ; }")


class TestWalkers:
    def test_walk_exprs_counts(self):
        e = parse_expr("sin(x) + x * 2.0")
        nodes = list(ast.walk_exprs(e))
        assert sum(isinstance(n, ast.Ident) for n in nodes) == 2
        assert sum(isinstance(n, ast.Call) for n in nodes) == 1

    def test_walk_stmts_finds_nested(self):
        unit = parse_program(PROGRAM)
        stmts = list(ast.walk_stmts(unit.function("compute").body))
        assert any(isinstance(s, ast.If) for s in stmts)
        assert any(isinstance(s, ast.For) for s in stmts)


class TestRoundTrip:
    def test_print_and_reparse(self):
        from repro.frontend.printer import print_c

        unit = parse_program(PROGRAM)
        text = print_c(unit)
        unit2 = parse_program(text)
        assert print_c(unit2) == text  # printing is a fixed point

    def test_expr_rendering_preserves_tree(self):
        src = "((a + b) + c) * (d - (e - f))"
        unit = parse_program(
            "void compute(double a, double b, double c, double d, double e, double f)"
            f" {{ double x = {src}; }}"
        )
        init = unit.functions[0].body.stmts[0].declarators[0].init
        text = expr_to_c(init)
        unit2 = parse_program(
            "void compute(double a, double b, double c, double d, double e, double f)"
            f" {{ double x = {text}; }}"
        )
        init2 = unit2.functions[0].body.stmts[0].declarators[0].init
        assert expr_to_c(init2) == text


#: Token-sized pieces, so generated text often gets past the lexer.
C_PIECES = (
    "void compute(double x)", "int", "double", "x", "a", "[", "]", "(", ")",
    "{", "}", "=", "+=", ";", ",", "+", "*", "/", "-", "!", "<", "&&", "?", ":",
    "1", "2.5", "1e3f", "for", "if", "else", "while", "return", "(double)",
    "sin", "<<<", ">>>", '"%g"', "\n#include <math.h>\n",
)


class TestNamedErrorsOnly:
    """Bad text fails with a library error, never a bare Python one."""

    def test_deep_nesting(self):
        depth = 3000
        source = f"void compute(double x) {{ double c = {'(' * depth}x{')' * depth}; }}"
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_program(source)

    def test_long_expression_chain(self):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_program(_program("comp = " + "+".join(["x"] * 2000) + ";"))

    def test_frontend_records_long_chain(self):
        from repro.difftest.engine import frontend_kernels
        from repro.toolchains.base import CompilerKind

        record = frontend_kernels(_program("comp = " + "+".join(["x"] * 2000) + ";"))
        assert record.kernels == {}
        for kind in CompilerKind:
            assert "nests too deeply" in record.errors[kind]

    @given(st.text() | st.lists(st.sampled_from(C_PIECES), max_size=60).map(" ".join))
    def test_arbitrary_text(self, source):
        try:
            unit = parse_program(source)
        except ReproError:
            return
        assert isinstance(unit, ast.TranslationUnit)


def _program(body: str) -> str:
    return (
        "#include <stdio.h>\nvoid compute(double x) {\n  double comp = x;\n"
        f"  {body}\n"
        '  printf("%.17g\\n", comp);\n}\n'
        "int main(int argc, char **argv) {\n  compute(atof(argv[1]));\n  return 0;\n}\n"
    )


#: Shapes whose depth grows by a fixed step per repetition: a left-deep
#: operator chain (built by the parser's loops, not its recursion), a
#: unary chain, and nested ``if`` statements.
DEEP_SHAPES = {
    "chain": lambda n: _program("comp = " + "+".join(["x"] * n) + ";"),
    "unary": lambda n: _program("comp = " + "- " * n + "x;"),
    "ifs": lambda n: _program("if (comp > 0.0) " * n + "comp = 1.0;"),
}


def _deepest(shape):
    """The largest repetition count whose tree is at most MAX_AST_DEPTH deep."""
    make = DEEP_SHAPES[shape]
    # From 20 repetitions on, the shape is the deepest part of the program.
    base = ast.depth(Parser(make(20)).parse())
    step = ast.depth(Parser(make(21)).parse()) - base
    return 20 + (MAX_AST_DEPTH - base) // step


class TestDepthCap:
    """The parser rejects trees deeper than MAX_AST_DEPTH, and every tree it
    accepts goes through the whole pipeline without a RecursionError."""

    @pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
    def test_cap_is_exact(self, shape):
        n = _deepest(shape)
        assert ast.depth(parse_program(DEEP_SHAPES[shape](n))) <= MAX_AST_DEPTH
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_program(DEEP_SHAPES[shape](n + 1))

    @pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
    def test_deepest_accepted_program_runs(self, shape):
        from repro.difftest.config import CampaignConfig
        from repro.difftest.engine import CampaignEngine
        from repro.generation.program import GeneratedProgram
        from repro.toolchains import default_compilers

        engine = CampaignEngine(default_compilers(), CampaignConfig(budget=1))
        program = GeneratedProgram(source=DEEP_SHAPES[shape](_deepest(shape)), inputs=(1.5,))
        outcome = engine.test_program(0, program)
        assert any(outcome.compiled.values())


def _reference_child_steps(node):
    """Children found by scanning every dataclass field for AST nodes."""

    def is_node(value):
        return dataclasses.is_dataclass(value) and type(value).__module__ == ast.__name__

    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if is_node(value):
            yield (f.name, None), value
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                if is_node(item):
                    yield (f.name, i), item


def _reference_depth(node):
    return 1 + max((_reference_depth(c) for _, c in _reference_child_steps(node)), default=0)


class TestChildFields:
    """``ast.CHILD_FIELDS`` is read from field annotations; it must find
    every child a scan of the field values finds."""

    def _units(self):
        from repro.experiments.approaches import make_generator
        from repro.utils.rng import SplittableRng

        yield parse_program(PROGRAM)
        for approach in ("varity", "llm4fp", "loops"):
            generator = make_generator(approach, SplittableRng(7, approach))
            for _ in range(10):
                yield parse_program(generator.generate().source)

    def test_child_steps_match_field_scan(self):
        for unit in self._units():
            for _, node in ast.walk_paths(unit):
                assert list(ast.child_steps(node)) == list(_reference_child_steps(node))

    def test_depth_matches_recursive_definition(self):
        for unit in self._units():
            assert ast.depth(unit) == _reference_depth(unit)
