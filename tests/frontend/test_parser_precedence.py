"""Binary-operator precedence and associativity, checked against C's own
table: every pair of operators, the right-nesting ternary, unary and cast
operands, parenthesised right operands, and right-nested depth errors
(``test_parser.py`` covers left chains and deep parentheses)."""

import itertools

import pytest

from repro.errors import ParseError
from repro.frontend import ast
from repro.frontend.parser import MAX_AST_DEPTH, parse_program

#: C's binary operators by level, loosest first (C11 6.5.5-6.5.14).
LEVELS = (
    ("||",),
    ("&&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("+", "-"),
    ("*", "/", "%"),
)
RANK = {op: rank for rank, ops in enumerate(LEVELS) for op in ops}


def shape(e):
    """A nested tuple of the tree: operators, names and node kinds only."""
    if isinstance(e, ast.Binary):
        return (e.op, shape(e.left), shape(e.right))
    if isinstance(e, ast.Ternary):
        return ("?:", shape(e.cond), shape(e.then), shape(e.other))
    if isinstance(e, ast.Unary):
        return (e.op, shape(e.operand))
    if isinstance(e, ast.Cast):
        return (f"({e.type.base})", shape(e.operand))
    if isinstance(e, ast.Ident):
        return e.name
    raise AssertionError(f"unexpected node {e!r}")


def parse_expr(text):
    unit = parse_program(
        "void compute(double a, double b, double c, double d, double e)"
        f" {{ double x = {text}; }}"
    )
    return shape(unit.functions[0].body.stmts[0].declarators[0].init)


@pytest.mark.parametrize("first, second", itertools.product(RANK, repeat=2))
def test_operator_pair(first, second):
    # The tighter operator groups first; at equal levels the left one does.
    if RANK[first] >= RANK[second]:
        expected = (second, (first, "a", "b"), "c")
    else:
        expected = (first, "a", (second, "b", "c"))
    assert parse_expr(f"a {first} b {second} c") == expected


def test_ternary_nests_to_the_right():
    assert parse_expr("a ? b : c ? d : e") == ("?:", "a", "b", ("?:", "c", "d", "e"))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("-a * b", ("*", ("-", "a"), "b")),
        ("!a * b", ("*", ("!", "a"), "b")),
        ("a * -b", ("*", "a", ("-", "b"))),
        ("(double) a * b", ("*", ("(double)", "a"), "b")),
        ("a / (int) b % c", ("%", ("/", "a", ("(int)", "b")), "c")),
        ("-(double) a * b", ("*", ("-", ("(double)", "a")), "b")),
    ],
)
def test_unary_and_cast_bind_tighter_than_multiplication(text, expected):
    assert parse_expr(text) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a - (b - c)", ("-", "a", ("-", "b", "c"))),
        ("a * (b + c)", ("*", "a", ("+", "b", "c"))),
        ("a && (b || c)", ("&&", "a", ("||", "b", "c"))),
        ("a < (b ? c : d)", ("<", "a", ("?:", "b", "c", "d"))),
        ("a - (b - c) - d", ("-", ("-", "a", ("-", "b", "c")), "d")),
    ],
)
def test_parenthesised_right_operand(text, expected):
    assert parse_expr(text) == expected


def _program(expr):
    return (
        "#include <stdio.h>\nvoid compute(double x) {\n"
        f"  double comp = {expr};\n"
        '  printf("%.17g\\n", comp);\n}\n'
        "int main(int argc, char **argv) {\n  compute(atof(argv[1]));\n  return 0;\n}\n"
    )


def test_right_nesting_is_accepted_or_named():
    """Right operands recurse: the deepest right-nested chain the parser
    accepts stays within the cap and runs through the whole pipeline,
    and one more level is a named error."""
    from repro.difftest.config import CampaignConfig
    from repro.difftest.engine import CampaignEngine
    from repro.generation.program import GeneratedProgram
    from repro.toolchains import default_compilers

    def source(n):
        return _program("x - (" * n + "x" + ")" * n)

    lo, hi = 1, 2 * MAX_AST_DEPTH
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            parse_program(source(mid))
            lo = mid
        except ParseError:
            hi = mid - 1
    assert lo > 60  # the generators nest under 20 levels
    assert ast.depth(parse_program(source(lo))) <= MAX_AST_DEPTH
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_program(source(lo + 1))
    engine = CampaignEngine(default_compilers(), CampaignConfig(budget=1))
    outcome = engine.test_program(
        0, GeneratedProgram(source=source(lo), inputs=(1.5,))
    )
    assert all(outcome.compiled.values())
