"""The vectorization tier: loop widening and loop unrolling semantics."""

import pytest

from repro.execution.worker import run_kernel
from repro.fp.env import FPEnvironment
from repro.frontend.parser import parse_program
from repro.frontend.sema import check_program
from repro.ir import nodes as ir
from repro.ir.lower import lower_compute
from repro.ir.passes import LoopUnroll, Vectorize

REDUCTION = """
#include <stdio.h>
#include <math.h>
void compute(double *a, double s, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    comp += a[i] * s + sin(s + i);
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  double in_a[16] = {atof(argv[1]), atof(argv[2]), atof(argv[3]), atof(argv[4]),
                     atof(argv[5]), atof(argv[6]), atof(argv[7]), atof(argv[8]),
                     atof(argv[9]), atof(argv[10]), atof(argv[11]), atof(argv[12]),
                     atof(argv[13]), atof(argv[14]), atof(argv[15]), atof(argv[16])};
  compute(in_a, atof(argv[17]), atoi(argv[18]));
  return 0;
}
"""

MAP_AND_REDUCE = """
#include <stdio.h>
void compute(double *a, double *b, double s, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    b[i] = a[i] * s;
  }
  for (int i = 0; i < n; ++i) {
    comp += b[i];
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  double in_a[8] = {atof(argv[1]), atof(argv[2]), atof(argv[3]), atof(argv[4]),
                    atof(argv[5]), atof(argv[6]), atof(argv[7]), atof(argv[8])};
  double in_b[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  compute(in_a, in_b, atof(argv[9]), atoi(argv[10]));
  return 0;
}
"""

GUARDED = """
#include <stdio.h>
void compute(double *a, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    if (a[i] > 0.0) {
      comp += a[i];
    }
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  double in_a[8] = {atof(argv[1]), atof(argv[2]), atof(argv[3]), atof(argv[4]),
                    atof(argv[5]), atof(argv[6]), atof(argv[7]), atof(argv[8])};
  compute(in_a, atoi(argv[9]));
  return 0;
}
"""

CARRIED = """
#include <stdio.h>
void compute(double *a, int n) {
  double comp = 0.0;
  for (int i = 1; i < n; ++i) {
    a[i] = a[i - 1] * 0.5;
  }
  for (int i = 0; i < n; ++i) {
    comp += a[i];
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  double in_a[8] = {atof(argv[1]), atof(argv[2]), atof(argv[3]), atof(argv[4]),
                    atof(argv[5]), atof(argv[6]), atof(argv[7]), atof(argv[8])};
  compute(in_a, atoi(argv[9]));
  return 0;
}
"""


def kernel_of(source):
    return lower_compute(check_program(parse_program(source)))


def run(kernel, inputs, env=None):
    result = run_kernel(kernel, env or FPEnvironment(), inputs, mode="check")
    assert result.ok, result.error
    return result.signature()


# Mixed-magnitude, cancellation-heavy values: association order visibly
# changes the rounding (verified: scalar, 4-adjacent, 4-ladder and
# 8-adjacent all produce distinct bit patterns on these inputs).
ARR16 = (
    -2.161244991344777, 16.744850325199423, -2140.123310536274,
    -667.4296376438043, 33.12432414736006, 8604.15565518937,
    4.366101377828139, -373427.6696042438, -13.557686496180793,
    -856.9062739358501, 2.8392700153319588, 46.56981918402771,
    6.836221364114393, 21.37550366737585, -134.8944261290064,
    294524.6182501556,
)
S = 4.192660422628809
RED_INPUTS = (ARR16, S, 16)

MAP_ARR8 = (
    42869.4493338854, 109.57731139657534, -0.022239508948297276,
    0.021187453593671603, 1.0647925511248872, 60.92579414005787,
    -83.52201034354079, 0.05264898307283457,
)
MAP_S = 4.127069422459008

PROD_ARR16 = (
    9.187652339343733, 0.7075804624127352, -13.446260492951494,
    10.665903515251744, -0.19804782243742552, 0.09093279076650851,
    -5.0683830300710575, -0.9675488144963441, 0.1444142426033629,
    218.89030969559963, -50.846291275375634, 0.06266134301080216,
    0.32087678497263944, 131.17544801784507, -2.310709997306091,
    -37.20895027630921,
)


def count_nodes(kernel, node_type):
    return sum(
        1
        for s in ir.walk_stmts(kernel.body)
        for top in ir.stmt_exprs(s)
        for e in ir.walk(top)
        if isinstance(e, node_type)
    )


class TestLoopUnroll:
    def test_unroll_preserves_semantics_bitwise(self):
        kernel = kernel_of(REDUCTION)
        for factor in (2, 4, 8):
            unrolled = LoopUnroll(factor).run(kernel)
            assert run(unrolled, RED_INPUTS) == run(kernel, RED_INPUTS)

    def test_unroll_is_idempotent_on_its_output(self):
        kernel = kernel_of(REDUCTION)
        once = LoopUnroll(4).run(kernel)
        assert LoopUnroll(4).run(once) == once

    def test_unroll_skips_guarded_loops(self):
        kernel = kernel_of(GUARDED)
        assert LoopUnroll(4).run(kernel) == kernel

    def test_bad_factor_rejected(self):
        with pytest.raises(ValueError):
            LoopUnroll(1)


class TestVectorize:
    def test_vectorized_reduction_diverges_bitwise(self):
        kernel = kernel_of(REDUCTION)
        scalar = run(kernel, RED_INPUTS)
        vec = Vectorize(4, "adjacent").run(kernel)
        assert count_nodes(vec, ir.VecReduce) == 1
        assert run(vec, RED_INPUTS) != scalar

    def test_widths_and_styles_diverge_from_each_other(self):
        kernel = kernel_of(REDUCTION)
        sigs = {
            (w, style): run(Vectorize(w, style).run(kernel), RED_INPUTS)
            for w, style in [(4, "adjacent"), (4, "ladder"), (8, "adjacent")]
        }
        assert len(set(sigs.values())) == 3

    def test_short_trip_counts_bitwise_untouched(self):
        """The runtime guard: fewer trips than lanes never enters the
        vector body, so the result is exactly the scalar one."""
        kernel = kernel_of(REDUCTION)
        vec = Vectorize(32, "butterfly").run(kernel)
        short = (ARR16, S, 13)  # 13 < 32 lanes
        assert run(vec, short) == run(kernel, short)

    def test_unroll_after_vectorize_is_vectorize(self):
        """Pass ordering: the unroller that follows the vectorizer leaves
        a widened loop exactly as the vectorizer built it — structurally,
        not just behaviourally."""
        kernel = kernel_of(REDUCTION)
        direct = Vectorize(4, "adjacent").run(kernel)
        staged = LoopUnroll(4).run(Vectorize(4, "adjacent").run(kernel))
        assert staged == direct

    def test_loop_that_stays_scalar_is_unrolled(self):
        """Pass ordering: a loop the vectorizer refuses (a division is no
        reduction it widens) comes out exactly as unrolling alone leaves
        it."""
        kernel = kernel_of(REDUCTION.replace("comp += a[i]", "comp /= a[i]"))
        assert Vectorize(4, "adjacent").run(kernel) is kernel
        staged = LoopUnroll(4).run(Vectorize(4, "adjacent").run(kernel))
        assert staged == LoopUnroll(4).run(kernel) != kernel

    def test_vectorize_is_idempotent(self):
        kernel = kernel_of(REDUCTION)
        once = Vectorize(4, "adjacent").run(kernel)
        assert Vectorize(4, "adjacent").run(once) == once

    def test_map_loop_vectorizes_without_divergence(self):
        """Vector stores are lane-wise identical to scalar stores; only
        reductions reassociate."""
        kernel = kernel_of(MAP_AND_REDUCE)
        vec = Vectorize(4, "adjacent").run(kernel)
        assert count_nodes(vec, ir.VecLoad) >= 1
        assert any(
            isinstance(s, ir.SVecStore) for s in ir.walk_stmts(vec.body)
        )
        inputs = (MAP_ARR8, (0.0,) * 8, MAP_S, 8)
        scalar = run(kernel, inputs)
        vec_sig = run(vec, inputs)
        # full kernel diverges (the reduction reassociates) ...
        assert vec_sig != scalar
        # ... but with a trip count below the width both loops stay scalar
        short = (MAP_ARR8, (0.0,) * 8, MAP_S, 3)
        assert run(vec, short) == run(kernel, short)

    def test_guarded_loop_refused(self):
        kernel = kernel_of(GUARDED)
        assert Vectorize(4, "adjacent").run(kernel) == kernel

    def test_hand_unrolled_source_loop_left_alone(self):
        """Regression: a *source* loop that happens to be stride-W with a
        ``i + (W-1) < n`` guard is not a unit-stride loop.  Widening it
        and appending a scalar epilogue would run tail trips the original
        program skipped, so it must stay scalar."""
        src = """
#include <stdio.h>
void compute(double *a, int n) {
  double comp = 0.0;
  for (int i = 0; i + 3 < n; i = i + 4) {
    comp = comp + a[i];
    comp = comp + a[i + 1];
    comp = comp + a[i + 2];
    comp = comp + a[i + 3];
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  double in_a[8] = {atof(argv[1]), atof(argv[2]), atof(argv[3]), atof(argv[4]),
                    atof(argv[5]), atof(argv[6]), atof(argv[7]), atof(argv[8])};
  compute(in_a, atoi(argv[9]));
  return 0;
}
"""
        kernel = kernel_of(src)
        vec = Vectorize(4, "adjacent").run(kernel)
        assert vec == kernel  # refused: not a unit-stride loop
        inputs = ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0), 6)
        # n=6: the source loop sums a[0..3] only; semantics preserved
        assert run(vec, inputs) == run(kernel, inputs)

    def test_stride_w_loop_with_branch_refused_not_crashed(self):
        """Regression: a stride-W source loop whose body contains an if
        is declined, not crashed on (``substitute_induction`` cannot
        rewrite an if)."""
        src = """
#include <stdio.h>
void compute(double *a, int n) {
  double comp = 0.0;
  for (int i = 0; i + 3 < n; i = i + 4) {
    if (a[i] > 0.0) {
      comp = comp + a[i];
    }
    comp = comp + a[i + 1];
    comp = comp + a[i + 2];
    comp = comp + a[i + 3];
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  double in_a[8] = {atof(argv[1]), atof(argv[2]), atof(argv[3]), atof(argv[4]),
                    atof(argv[5]), atof(argv[6]), atof(argv[7]), atof(argv[8])};
  compute(in_a, atoi(argv[9]));
  return 0;
}
"""
        kernel = kernel_of(src)
        assert Vectorize(4, "adjacent").run(kernel) == kernel

    def test_loop_carried_dependence_refused(self):
        kernel = kernel_of(CARRIED)
        vec = Vectorize(4, "adjacent").run(kernel)
        # first loop (a[i] = a[i-1] * .5) must stay scalar; the reduction
        # loop may vectorize — semantics must match scalar prefix behaviour
        assert not any(
            isinstance(s, ir.SVecStore) for s in ir.walk_stmts(vec.body)
        )

    def test_product_reduction(self):
        src = REDUCTION.replace(
            "comp += a[i] * s + sin(s + i);", "comp *= (1.0 + 0.125 * a[i]);"
        ).replace("double comp = 0.0;", "double comp = 1.0;")
        kernel = kernel_of(src)
        vec = Vectorize(4, "ladder").run(kernel)
        assert count_nodes(vec, ir.VecReduce) == 1
        [red] = [
            e
            for s in ir.walk_stmts(vec.body)
            for top in ir.stmt_exprs(s)
            for e in ir.walk(top)
            if isinstance(e, ir.VecReduce)
        ]
        assert red.op == "*"
        inputs = (PROD_ARR16, S, 16)
        assert run(vec, inputs) != run(kernel, inputs)

    def test_subtraction_reduction(self):
        src = REDUCTION.replace("comp +=", "comp -=")
        kernel = kernel_of(src)
        vec = Vectorize(4, "adjacent").run(kernel)
        assert count_nodes(vec, ir.VecReduce) == 1
        # lanes accumulate with '+', the combine subtracts the partial sum
        assert run(vec, RED_INPUTS) != run(kernel, RED_INPUTS)

    def test_bad_width_and_style_rejected(self):
        with pytest.raises(ValueError):
            Vectorize(1)
        with pytest.raises(ValueError):
            Vectorize(4, style="mystery")


class TestTierFlags:
    """The full-profile widening flags: integer guards and mixed precision.

    Both default off; the baseline vectorizer must keep refusing these
    constructs byte-for-byte so pre-registry pipelines are unchanged.
    """

    INT_GUARDED = GUARDED.replace("a[i] > 0.0", "i < n - 2")
    MIXED = REDUCTION.replace(
        "comp += a[i] * s + sin(s + i);",
        "comp += (float)(a[i]) * (float)(s);",
    )
    # slice picked so the masked adjacent partial sums round differently
    # from the scalar left fold (verified bitwise)
    GUARD_INPUTS = (ARR16[5:13], 8)

    def test_int_guard_refused_without_the_flag(self):
        from repro.ir.passes import IfConvert

        kernel = IfConvert().run(kernel_of(self.INT_GUARDED))
        vec = Vectorize(4, "adjacent", masked=True).run(kernel)
        assert vec == kernel  # integer mask: baseline declines

    def test_int_guard_widens_to_iota_vs_splat_compare(self):
        from repro.ir.passes import IfConvert

        kernel = IfConvert().run(kernel_of(self.INT_GUARDED))
        vec = Vectorize(4, "adjacent", masked=True, int_guards=True).run(kernel)
        assert vec != kernel
        cmps = [
            e
            for s in ir.walk_stmts(vec.body)
            for top in ir.stmt_exprs(s)
            for e in ir.walk(top)
            if isinstance(e, ir.VecCmp)
        ]
        assert cmps and all(
            isinstance(c.left, ir.VecIota) and isinstance(c.right, ir.VecSplat)
            for c in cmps
        )

    def test_int_guard_lanes_reassociate_the_reduction(self):
        from repro.ir.passes import IfConvert

        kernel = IfConvert().run(kernel_of(self.INT_GUARDED))
        vec = Vectorize(4, "adjacent", masked=True, int_guards=True).run(kernel)
        assert run(vec, self.GUARD_INPUTS) != run(kernel, self.GUARD_INPUTS)
        short = (ARR16[5:13], 3)  # below the width: the guard stays scalar
        assert run(vec, short) == run(kernel, short)

    def test_mixed_refused_without_the_flag(self):
        kernel = kernel_of(self.MIXED)
        assert Vectorize(4, "adjacent").run(kernel) == kernel

    def test_mixed_widens_the_precision_conversions(self):
        kernel = kernel_of(self.MIXED)
        vec = Vectorize(4, "adjacent", mixed=True).run(kernel)
        assert count_nodes(vec, ir.VecFpTrunc) >= 1
        assert count_nodes(vec, ir.VecReduce) == 1
        # the scalar epilogue loop keeps its scalar conversions
        assert count_nodes(vec, ir.FpTrunc) >= 1

    # Float32 products span enough binades here that double-precision
    # accumulation rounds, so association order is visible; narrow-spread
    # float terms (like ARR16's) sum *exactly* in double and would hide
    # the reassociation.
    MIXED_ARR16 = (
        -857168.0368232641, -0.008670182292, -567611381.0612221,
        -0.000436261748, -73.057777878741, -6.44769e-07,
        17178.571051320545, 0.00836564006, 221631212.73369572,
        -7.86303e-07, -0.557625126964, 1793125.5291513093,
        -0.031267196541, 3.442340657534, -4.083e-09, -0.768062131208,
    )

    def test_mixed_lanes_reassociate_the_reduction(self):
        kernel = kernel_of(self.MIXED)
        vec = Vectorize(4, "adjacent", mixed=True).run(kernel)
        inputs = (self.MIXED_ARR16, S, 16)
        assert run(vec, inputs) != run(kernel, inputs)
        short = (self.MIXED_ARR16, S, 3)
        assert run(vec, short) == run(kernel, short)

    def test_flags_default_off(self):
        pass_ = Vectorize(4, "adjacent")
        assert not pass_.masked and not pass_.int_guards and not pass_.mixed


class TestVectorInterp:
    def test_reduce_styles_model_distinct_association_orders(self):
        env = FPEnvironment()
        lanes = ir.VecConst((1e16, 1.0, -1e16, 1.0), "double")
        results = {
            style: ir.VecReduce("+", lanes, 4, "double", style)
            for style in ir.REDUCE_STYLES
        }
        values = {
            style: run_kernel(
                ir.Kernel(
                    "compute",
                    (),
                    (ir.SPrint("%.17g\\n", (node,)),),
                ),
                env,
                (),
                mode="check",
            ).printed[0]
            for style, node in results.items()
        }
        # butterfly (x0+x2)+(x1+x3): (1e16-1e16)+(1+1)          = 2.0
        # ladder ((x0+x1)+x2)+x3:    ((1e16+1 -> 1e16)-1e16)+1  = 1.0
        # adjacent (x0+x1)+(x2+x3):  (1e16) + (-1e16)           = 0.0
        assert values["butterfly"] == 2.0
        assert values["ladder"] == 1.0
        assert values["adjacent"] == 0.0

    def test_vector_load_bounds_trap(self):
        from repro.execution.result import ExecStatus

        kernel = ir.Kernel(
            "compute",
            (ir.Param("a", "double*"),),
            (
                ir.SAssign(
                    "v",
                    ir.VecLoad("a", ir.IConst(6), 4, "double"),
                    "double",
                ),
            ),
        )
        result = run_kernel(kernel, FPEnvironment(), ((1.0,) * 8,), mode="check")
        assert result.status is ExecStatus.TRAP
        assert "out of bounds" in result.error
