"""Optimizer passes: folding, contraction, reassociation, fast-math."""

import gc
import math

import pytest

from repro.frontend.parser import parse_program
from repro.frontend.sema import check_program
from repro.ir import nodes as ir
from repro.ir.lower import lower_compute
from repro.ir.passes import (
    ConstantFold,
    FiniteMathSimplify,
    FmaContract,
    FunctionSubstitution,
    PassPipeline,
    Reassociate,
    ReciprocalDivision,
)
from repro.ir.passes.base import rebuild_expr


def kernel_for(body, params="double a, double b, int n"):
    n_params = len(params.split(","))
    args = ", ".join(["1.0"] * n_params)
    src = (
        f"void compute({params}) {{ {body} }}"
        f"int main() {{ compute({args}); return 0; }}"
    )
    return lower_compute(check_program(parse_program(src)))


def first_value(kernel):
    return kernel.body[0].value


class TestConstantFold:
    def test_int_arith(self):
        k = ConstantFold().run(kernel_for("int i = 2 + 3 * 4;"))
        assert first_value(k) == ir.IConst(14)

    def test_c_division_truncates(self):
        k = ConstantFold().run(kernel_for("int i = -7 / 2;"))
        assert first_value(k) == ir.IConst(-3)  # not -4

    def test_c_remainder_sign(self):
        k = ConstantFold().run(kernel_for("int i = -7 % 2;"))
        assert first_value(k) == ir.IConst(-1)

    @pytest.mark.parametrize(
        "literal, expected",
        [("2147483647.5", 2147483647), ("-2147483648.0", -2147483648),
         ("-2147483648.5", -2147483648)],
    )
    def test_float_to_int_discards_the_fraction_first(self, literal, expected):
        k = ConstantFold().run(kernel_for(f"int i = (int){literal};"))
        assert first_value(k) == ir.IConst(expected)

    @pytest.mark.parametrize("literal", ["2147483648.0", "-2147483649.0", "1e300"])
    def test_float_to_int_out_of_range_left_for_the_trap(self, literal):
        k = ConstantFold().run(kernel_for(f"int i = (int){literal};"))
        assert isinstance(first_value(k), ir.FpToSi)

    def test_fp_arith(self):
        k = ConstantFold().run(kernel_for("double c = 0.1 + 0.2;"))
        assert first_value(k) == ir.FConst(0.1 + 0.2, "double")

    def test_calls_not_folded_by_default(self):
        k = ConstantFold().run(kernel_for("double c = sin(0.5);"))
        assert isinstance(first_value(k), ir.FCall)

    def test_calls_folded_when_enabled(self):
        k = ConstantFold(fold_calls=True).run(kernel_for("double c = sin(0.5);"))
        assert first_value(k) == ir.FConst(math.sin(0.5), "double")

    def test_propagation_reaches_call(self):
        body = "double k = 0.5; double c = sin(k);"
        lit_only = ConstantFold(fold_calls=True, propagate=False).run(kernel_for(body))
        assert isinstance(lit_only.body[1].value, ir.FCall)
        prop = ConstantFold(fold_calls=True, propagate=True).run(kernel_for(body))
        assert prop.body[1].value == ir.FConst(math.sin(0.5), "double")

    def test_propagation_killed_by_branch(self):
        body = (
            "double k = 0.5;"
            " if (a > 0.0) { k = 1.5; }"
            " double c = sin(k);"
        )
        k = ConstantFold(fold_calls=True, propagate=True).run(kernel_for(body))
        assert isinstance(k.body[-1].value, ir.FCall)

    def test_propagation_killed_by_loop(self):
        body = (
            "double k = 0.5;"
            " for (int i = 0; i < n; ++i) { k = k + 1.0; }"
            " double c = sin(k);"
        )
        k = ConstantFold(fold_calls=True, propagate=True).run(kernel_for(body))
        assert isinstance(k.body[-1].value, ir.FCall)

    def test_propagation_merges_equal_branches(self):
        body = (
            "double k = 0.5;"
            " if (a > 0.0) { double t = 1.0; } else { double u = 2.0; }"
            " double c = cos(k);"
        )
        k = ConstantFold(fold_calls=True, propagate=True).run(kernel_for(body))
        assert k.body[-1].value == ir.FConst(math.cos(0.5), "double")

    def test_div_by_zero_not_folded_int(self):
        k = ConstantFold().run(kernel_for("int z = n - n; int i = 5 / (0 * z + 0 + 1);"))
        # 5 / 1 folds fine; just checks no crash on the zero-mul path
        assert isinstance(k.body[-1], ir.SAssign)

    def test_conversions_folded(self):
        k = ConstantFold().run(kernel_for("double c = (double)3;"))
        assert first_value(k) == ir.FConst(3.0, "double")

    def test_compare_and_select_folded(self):
        k = ConstantFold().run(kernel_for("double c = 1.0 > 2.0 ? a : b;"))
        v = first_value(k)
        assert isinstance(v, ir.Load) and v.name == "b"


class TestFmaContract:
    def test_mul_add(self):
        k = FmaContract().run(kernel_for("double c = a * b + 1.0;"))
        assert isinstance(first_value(k), ir.Fma)

    def test_add_mul_right(self):
        k = FmaContract().run(kernel_for("double c = 1.0 + a * b;"))
        v = first_value(k)
        assert isinstance(v, ir.Fma)
        assert v.c == ir.FConst(1.0, "double")

    def test_mul_sub(self):
        k = FmaContract().run(kernel_for("double c = a * b - 1.0;"))
        v = first_value(k)
        assert isinstance(v, ir.Fma) and isinstance(v.c, ir.FNeg)

    def test_sub_mul(self):
        k = FmaContract().run(kernel_for("double c = 1.0 - a * b;"))
        v = first_value(k)
        assert isinstance(v, ir.Fma) and isinstance(v.a, ir.FNeg)

    def test_left_preference(self):
        k = FmaContract().run(kernel_for("double c = a * a + b * b;"))
        v = first_value(k)
        assert isinstance(v, ir.Fma)
        assert isinstance(v.c, ir.FBin) and v.c.op == "*"

    def test_plain_add_untouched(self):
        k = FmaContract().run(kernel_for("double c = a + b;"))
        assert isinstance(first_value(k), ir.FBin)

    def test_no_cross_precision_contraction(self):
        k = FmaContract().run(kernel_for("float f = 1.0f; double c = f * f + a;", params="double a"))
        # (double)(f*f as float widened)... the product is float-typed,
        # the add double-typed: no contraction across the rounding step.
        v = k.body[1].value
        assert not isinstance(v, ir.Fma)


class TestReassociate:
    def test_short_chain_untouched(self):
        k = Reassociate("balanced").run(kernel_for("double c = a + b;"))
        assert first_value(k) == ir.FBin(
            "+", ir.Load("a", "double"), ir.Load("b", "double"), "double"
        )

    def test_balanced_regroups(self):
        src = "double c = a + b + a + b;"
        strict = kernel_for(src)
        k = Reassociate("balanced").run(kernel_for(src))
        v = first_value(k)
        # ((a+b)+a)+b becomes (a+b)+(a+b)
        assert isinstance(v.left, ir.FBin) and isinstance(v.right, ir.FBin)
        assert v != first_value(strict)

    def test_ranked_deterministic(self):
        src = "double c = a + b + 1.5 + a;"
        k1 = Reassociate("ranked").run(kernel_for(src))
        k2 = Reassociate("ranked").run(kernel_for(src))
        assert first_value(k1) == first_value(k2)

    def test_styles_differ(self):
        src = "double c = a + b + 1.5 + a + b;"
        bal = Reassociate("balanced").run(kernel_for(src))
        rank = Reassociate("ranked").run(kernel_for(src))
        assert first_value(bal) != first_value(rank)

    def test_subtraction_normalized(self):
        k = Reassociate("balanced").run(kernel_for("double c = a - b + a + b;"))
        # must have regrouped: at least one FNeg present in the tree
        assert any(isinstance(x, ir.FNeg) for x in ir.walk(first_value(k)))

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            Reassociate("zigzag")


class TestReciprocalDivision:
    def test_rewrites_division(self):
        k = ReciprocalDivision().run(kernel_for("double c = a / b;"))
        v = first_value(k)
        assert isinstance(v, ir.FBin) and v.op == "*"
        assert isinstance(v.right, ir.FBin) and v.right.op == "/"
        assert v.right.left == ir.FConst(1.0, "double")

    def test_constants_only_mode(self):
        p = ReciprocalDivision(constants_only=True)
        k1 = p.run(kernel_for("double c = a / b;"))
        assert first_value(k1).op == "/"
        k2 = p.run(kernel_for("double c = a / 3.0;"))
        assert first_value(k2).op == "*"

    def test_inner_reciprocal_not_rewritten_again(self):
        k = ReciprocalDivision().run(kernel_for("double c = a / b / a;"))
        # should terminate and produce a finite tree
        assert isinstance(first_value(k), ir.FBin)


class TestFiniteMath:
    def test_x_minus_x(self):
        k = FiniteMathSimplify().run(kernel_for("double c = a - a;"))
        assert first_value(k) == ir.FConst(0.0, "double")

    def test_x_div_x(self):
        k = FiniteMathSimplify().run(kernel_for("double c = a / a;"))
        assert first_value(k) == ir.FConst(1.0, "double")

    def test_mul_zero(self):
        k = FiniteMathSimplify().run(kernel_for("double c = a * 0.0;"))
        assert first_value(k) == ir.FConst(0.0, "double")

    def test_add_zero(self):
        k = FiniteMathSimplify().run(kernel_for("double c = a + 0.0;"))
        assert first_value(k) == ir.Load("a", "double")

    def test_mul_one(self):
        k = FiniteMathSimplify().run(kernel_for("double c = 1.0 * a;"))
        assert first_value(k) == ir.Load("a", "double")

    def test_sqrt_of_square(self):
        k = FiniteMathSimplify().run(kernel_for("double c = sqrt(a * a);"))
        v = first_value(k)
        assert isinstance(v, ir.FCall) and v.name == "fabs"

    def test_different_subtrees_untouched(self):
        k = FiniteMathSimplify().run(kernel_for("double c = a - b;"))
        assert isinstance(first_value(k), ir.FBin)


class TestFunctionSubstitution:
    def test_pow_two(self):
        k = FunctionSubstitution().run(kernel_for("double c = pow(a, 2.0);"))
        v = first_value(k)
        assert isinstance(v, ir.FBin) and v.op == "*"

    def test_pow_half(self):
        k = FunctionSubstitution(pow_half_to_sqrt=True).run(
            kernel_for("double c = pow(a, 0.5);")
        )
        assert first_value(k).name == "sqrt"

    def test_pow_half_kept_when_disabled(self):
        k = FunctionSubstitution(pow_half_to_sqrt=False).run(
            kernel_for("double c = pow(a, 0.5);")
        )
        assert first_value(k).name == "pow"

    def test_pow_negative_exponent(self):
        k = FunctionSubstitution().run(kernel_for("double c = pow(a, -2.0);"))
        v = first_value(k)
        assert isinstance(v, ir.FBin) and v.op == "/"

    def test_pow_zero(self):
        k = FunctionSubstitution().run(kernel_for("double c = pow(a, 0.0);"))
        assert first_value(k) == ir.FConst(1.0, "double")

    def test_threshold_respected(self):
        k = FunctionSubstitution(max_pow_expand=2).run(
            kernel_for("double c = pow(a, 3.0);")
        )
        assert first_value(k).name == "pow"

    def test_variable_exponent_untouched(self):
        k = FunctionSubstitution().run(kernel_for("double c = pow(a, b);"))
        assert first_value(k).name == "pow"


class TestPipeline:
    def test_order_matters(self):
        src = "double c = sin(0.25) * 1.0;"
        fold_then_simplify = PassPipeline(
            [ConstantFold(fold_calls=True), FiniteMathSimplify()]
        ).run(kernel_for(src))
        assert fold_then_simplify.body[0].value == ir.FConst(math.sin(0.25), "double")

    def test_pipeline_names(self):
        p = PassPipeline([ConstantFold(), FmaContract()])
        assert p.names == ["constant-fold", "fma-contract"]

    def test_empty_pipeline_identity(self):
        k = kernel_for("double c = a + b;")
        assert PassPipeline().run(k) is k


def test_rewrites_leave_no_reference_cycles():
    """A rewrite's garbage is freed by reference counting alone."""
    kernel = kernel_for(
        "double s = 0.0;"
        " for (int i = 0; i < n; i++) { s = s + a * b / (a - sin(b)); }"
        " double c = s * 2.0 + a;"
    )
    passes = [FmaContract(), Reassociate(), ReciprocalDivision(),
              FiniteMathSimplify(), FunctionSubstitution()]
    gc.collect()
    gc.disable()
    try:
        for p in passes:
            p.run(kernel)
        for s in kernel.body:
            ir.map_children(s, lambda e: rebuild_expr(e, lambda n: n))
        assert gc.collect() == 0
    finally:
        gc.enable()
