"""Printers: C output fidelity, parenthesization, CUDA translation."""

from repro.frontend.parser import parse_program
from repro.frontend.printer import expr_to_c, print_c, print_cuda
from repro.toolchains.cuda import translate_to_cuda

SRC = """#include <stdio.h>
#include <math.h>

void compute(double a, double b, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    comp += a * b;
  }
  printf("%.17g\\n", comp);
}

int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]), atoi(argv[3]));
  return 0;
}
"""


def roundtrip_expr(text, params="double a, double b, double c"):
    unit = parse_program(f"void compute({params}) {{ double x = {text}; }}")
    return expr_to_c(unit.functions[0].body.stmts[0].declarators[0].init)


class TestExprPrinting:
    def test_precedence_no_spurious_parens(self):
        assert roundtrip_expr("a + b * c") == "a + b * c"

    def test_grouping_preserved(self):
        assert roundtrip_expr("(a + b) * c") == "(a + b) * c"

    def test_association_preserved_on_reparse(self):
        # a - (b - c) must not print as a - b - c
        out = roundtrip_expr("a - (b - c)")
        assert out == "a - (b - c)"

    def test_right_assoc_rendered(self):
        # the printer parenthesizes right operands at equal precedence
        assert roundtrip_expr("a + (b + c)") == "a + (b + c)"

    def test_unary_in_product(self):
        assert roundtrip_expr("-a * b") == "-a * b"

    def test_unary_of_sum(self):
        assert roundtrip_expr("-(a + b)") == "-(a + b)"

    def test_call_and_index(self):
        out = roundtrip_expr("sin(a) + b", params="double a, double b")
        assert out == "sin(a) + b"

    def test_ternary(self):
        out = roundtrip_expr("a > b ? a : b")
        assert out == "a > b ? a : b"

    def test_cast(self):
        out = roundtrip_expr("(double)1 / a", params="double a")
        assert out == "(double)1 / a"

    def test_float_suffix_preserved(self):
        assert roundtrip_expr("1.5f + a", params="float a") == "1.5f + a"


class TestProgramPrinting:
    def test_fixed_point(self):
        text = print_c(parse_program(SRC))
        assert print_c(parse_program(text)) == text

    def test_includes_first(self):
        text = print_c(parse_program(SRC))
        assert text.startswith("#include <stdio.h>")

    def test_semantics_preserving_tokens(self):
        text = print_c(parse_program(SRC))
        assert "for (int i = 0; i < n; ++i)" in text or "for (int i = 0; i < n; i++)" in text


class TestCudaTranslation:
    def test_global_kernel(self):
        cuda = print_cuda(parse_program(SRC))
        assert "__global__ void compute" in cuda

    def test_single_thread_launch(self):
        cuda = print_cuda(parse_program(SRC))
        assert "compute<<<1,1>>>(" in cuda

    def test_main_body_otherwise_intact(self):
        cuda = print_cuda(parse_program(SRC))
        assert "atof(argv[1])" in cuda

    def test_cuda_parses_back(self):
        unit = parse_program(SRC)
        assert parse_program(print_cuda(unit)) == translate_to_cuda(unit)
