"""If-conversion: select-form rewrites, refusals, and masked widening."""

from repro.execution.result import ExecStatus
from repro.execution.worker import run_kernel
from repro.fp.env import FPEnvironment
from repro.frontend.parser import parse_program
from repro.frontend.sema import check_program
from repro.ir import nodes as ir
from repro.ir.lower import lower_compute
from repro.ir.passes import IfConvert, LoopUnroll, Vectorize

MAIN_8 = """
int main(int argc, char **argv) {
  double in_a[8] = {atof(argv[1]), atof(argv[2]), atof(argv[3]), atof(argv[4]),
                    atof(argv[5]), atof(argv[6]), atof(argv[7]), atof(argv[8])};
  compute(in_a, atof(argv[9]), atoi(argv[10]));
  return 0;
}
"""

MAIN_16 = """
int main(int argc, char **argv) {
  double in_a[16] = {atof(argv[1]), atof(argv[2]), atof(argv[3]), atof(argv[4]),
                     atof(argv[5]), atof(argv[6]), atof(argv[7]), atof(argv[8]),
                     atof(argv[9]), atof(argv[10]), atof(argv[11]), atof(argv[12]),
                     atof(argv[13]), atof(argv[14]), atof(argv[15]), atof(argv[16])};
  compute(in_a, atof(argv[17]), atoi(argv[18]));
  return 0;
}
"""

GUARDED_SUM = (
    """
#include <stdio.h>
void compute(double *a, double s, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    if (a[i] > s) {
      comp += a[i];
    }
  }
  printf("%.17g\\n", comp);
}
"""
    + MAIN_16
)

TWO_ARMED = (
    """
#include <stdio.h>
void compute(double *a, double s, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    if (a[i] > 0.0) {
      comp += a[i] * s;
    } else {
      comp += a[i] * a[i];
    }
  }
  printf("%.17g\\n", comp);
}
"""
    + MAIN_8
)

# Mixed-sign, cancellation-heavy values (association order visibly
# rounds; verified: with the ``> 0.0`` guard below, the masked ladder and
# butterfly widenings bitwise-diverge from the scalar fold, and width 8
# diverges from width 4).
ARR16 = (
    -2.161244991344777, 16.744850325199423, -2140.123310536274,
    -667.4296376438043, 33.12432414736006, 8604.15565518937,
    4.366101377828139, -373427.6696042438, -13.557686496180793,
    -856.9062739358501, 2.8392700153319588, 46.56981918402771,
    6.836221364114393, 21.37550366737585, -134.8944261290064,
    294524.6182501556,
)
ARR8 = ARR16[:8]
INPUTS = (ARR16, 0.0, 16)
INPUTS_8 = (ARR8, 0.0, 8)


def kernel_of(source):
    return lower_compute(check_program(parse_program(source)))


def run(kernel, inputs, env=None):
    result = run_kernel(kernel, env or FPEnvironment(), inputs, mode="check")
    assert result.ok, result.error
    return result.signature()


def count_nodes(kernel, node_type):
    return sum(
        1
        for s in ir.walk_stmts(kernel.body)
        for top in ir.stmt_exprs(s)
        for e in ir.walk(top)
        if isinstance(e, node_type)
    )


class TestIfConvertScalar:
    def test_guarded_sum_converts_to_factored_select(self):
        converted = IfConvert().run(kernel_of(GUARDED_SUM))
        assert not any(isinstance(s, ir.SIf) for s in ir.walk_stmts(converted.body))
        loops = [
            s for s in ir.walk_stmts(converted.body) if isinstance(s, ir.SFor)
        ]
        body = loops[0].body
        assert len(body) == 1 and isinstance(body[0], ir.SAssign)
        v = body[0].value
        # comp = comp + Select(cond, a[i], 0.0): the reduction shape
        # Vectorize recognizes
        assert isinstance(v, ir.FBin) and v.op == "+"
        assert isinstance(v.left, ir.Load) and v.left.name == "comp"
        assert isinstance(v.right, ir.Select)
        assert isinstance(v.right.other, ir.FConst) and v.right.other.value == 0.0

    def test_conversion_is_bitwise_semantics_preserving(self):
        for src, inputs in ((GUARDED_SUM, INPUTS), (TWO_ARMED, INPUTS_8)):
            kernel = kernel_of(src)
            converted = IfConvert().run(kernel)
            assert converted != kernel
            assert run(converted, inputs) == run(kernel, inputs)

    def test_two_armed_same_op_factors_accumulator(self):
        converted = IfConvert().run(kernel_of(TWO_ARMED))
        selects = count_nodes(converted, ir.Select)
        assert selects == 1
        assert not any(isinstance(s, ir.SIf) for s in ir.walk_stmts(converted.body))

    def test_one_armed_store_becomes_scalar_masked_store(self):
        src = (
            """
#include <stdio.h>
void compute(double *a, double s, int n) {
  for (int i = 0; i < n; ++i) {
    if (a[i] > 0.0) {
      a[i] = a[i] * s;
    }
  }
  printf("%.17g\\n", a[0]);
}
"""
            + MAIN_8
        )
        kernel = kernel_of(src)
        converted = IfConvert().run(kernel)
        stores = [
            s for s in ir.walk_stmts(converted.body)
            if isinstance(s, ir.SMaskedStore)
        ]
        assert len(stores) == 1 and stores[0].lanes == 1
        assert run(converted, INPUTS_8) == run(kernel, INPUTS_8)

    def test_else_only_store_masks_on_negated_condition(self):
        src = (
            """
#include <stdio.h>
void compute(double *a, double s, int n) {
  double unused = 0.0;
  for (int i = 0; i < n; ++i) {
    if (a[i] > 0.0) {
      unused += 1.0;
    } else {
      a[i] = s;
    }
  }
  printf("%.17g\\n", a[0] + unused);
}
"""
            + MAIN_8
        )
        kernel = kernel_of(src)
        converted = IfConvert().run(kernel)
        stores = [
            s for s in ir.walk_stmts(converted.body)
            if isinstance(s, ir.SMaskedStore)
        ]
        assert len(stores) == 1 and isinstance(stores[0].mask, ir.Not)
        assert run(converted, INPUTS_8) == run(kernel, INPUTS_8)

    def test_both_armed_store_same_index_becomes_select_store(self):
        src = (
            """
#include <stdio.h>
void compute(double *a, double s, int n) {
  for (int i = 0; i < n; ++i) {
    if (a[i] > 0.0) {
      a[i] = a[i] * s;
    } else {
      a[i] = 0.0;
    }
  }
  printf("%.17g\\n", a[0]);
}
"""
            + MAIN_8
        )
        kernel = kernel_of(src)
        converted = IfConvert().run(kernel)
        assert not any(isinstance(s, ir.SIf) for s in ir.walk_stmts(converted.body))
        assert not any(
            isinstance(s, ir.SMaskedStore) for s in ir.walk_stmts(converted.body)
        )
        assert run(converted, INPUTS_8) == run(kernel, INPUTS_8)


class TestIfConvertRefusals:
    def _unchanged(self, src):
        kernel = kernel_of(src)
        assert IfConvert().run(kernel) == kernel

    def test_nested_if_refused(self):
        self._unchanged(
            """
#include <stdio.h>
void compute(double *a, double s, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    if (a[i] > 0.0) {
      if (a[i] > s) { comp += a[i]; }
    }
  }
  printf("%.17g\\n", comp);
}
"""
            + MAIN_8
        )

    def test_print_in_arm_refused(self):
        self._unchanged(
            """
#include <stdio.h>
void compute(double *a, double s, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    if (a[i] > 0.0) {
      printf("%g\\n", a[i]);
    }
  }
  printf("%.17g\\n", comp);
}
"""
            + MAIN_8
        )

    def test_arm_reading_other_assigned_variable_refused(self):
        # t and comp are both written; comp's arm reads t, so a blend
        # against pre-conditional state would be wrong.
        self._unchanged(
            """
#include <stdio.h>
void compute(double *a, double s, int n) {
  double comp = 0.0;
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    if (a[i] > 0.0) {
      t = a[i] * s;
      comp = comp + t;
    }
  }
  printf("%.17g\\n", comp);
}
"""
            + MAIN_8
        )

    def test_condition_reading_one_of_two_stored_arrays_refused(self):
        # With two stores the second one re-evaluates the condition after
        # the first wrote memory the condition reads — not a blend.
        src = (
            """
#include <stdio.h>
void compute(double *a, double s, int n) {
  double b[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  for (int i = 0; i < n; ++i) {
    if (a[i] > 0.0) {
      a[i] = s;
    } else {
      b[i] = s;
    }
  }
  printf("%.17g\\n", a[0] + b[0]);
}
"""
            + MAIN_8
        )
        self._unchanged(src)

    def test_arms_storing_different_indices_refused(self):
        self._unchanged(
            """
#include <stdio.h>
void compute(double *a, double s, int n) {
  for (int i = 0; i < n - 1; ++i) {
    if (s > 0.0) {
      a[i] = s;
    } else {
      a[i + 1] = s;
    }
  }
  printf("%.17g\\n", a[0]);
}
"""
            + MAIN_8
        )

    def test_outer_loop_of_a_nest_refused(self):
        # Only innermost loops if-convert; the outer SIf stays a branch.
        src = (
            """
#include <stdio.h>
void compute(double *a, double s, int n) {
  double comp = 0.0;
  for (int j = 0; j < n; ++j) {
    if (s > 0.0) {
      comp += 1.0;
    }
    for (int i = 0; i < n; ++i) {
      comp += a[i];
    }
  }
  printf("%.17g\\n", comp);
}
"""
            + MAIN_8
        )
        kernel = kernel_of(src)
        converted = IfConvert().run(kernel)
        assert any(isinstance(s, ir.SIf) for s in ir.walk_stmts(converted.body))


class TestMaskedWidening:
    def test_masked_vectorization_diverges_bitwise(self):
        kernel = kernel_of(GUARDED_SUM)
        converted = IfConvert().run(kernel)
        scalar = run(kernel, INPUTS)
        sigs = {
            style: run(Vectorize(4, style, masked=True).run(converted), INPUTS)
            for style in ("adjacent", "ladder", "butterfly")
        }
        wide8 = run(Vectorize(8, "adjacent", masked=True).run(converted), INPUTS)
        # the masked widenings bitwise-diverge from the scalar branchy
        # fold, across reduction styles, and across widths
        assert any(sig != scalar for sig in sigs.values())
        assert len(set(sigs.values())) >= 2
        assert wide8 != sigs["adjacent"]

    def test_widened_loop_carries_mask_nodes(self):
        converted = IfConvert().run(kernel_of(GUARDED_SUM))
        vec = Vectorize(4, "adjacent", masked=True).run(converted)
        assert count_nodes(vec, ir.VecCmp) >= 1
        assert count_nodes(vec, ir.VecSelect) >= 1
        assert count_nodes(vec, ir.VecMaskedLoad) >= 1

    def test_unmasked_vectorizer_still_refuses_select_form(self):
        converted = IfConvert().run(kernel_of(GUARDED_SUM))
        assert Vectorize(4, "adjacent").run(converted) == converted

    def test_unroll_after_vectorize_is_vectorize_on_select_form(self):
        converted = IfConvert().run(kernel_of(GUARDED_SUM))
        direct = Vectorize(4, "adjacent", masked=True).run(converted)
        staged = LoopUnroll(4).run(Vectorize(4, "adjacent", masked=True).run(converted))
        assert staged == direct

    def test_short_trip_counts_bitwise_untouched(self):
        kernel = kernel_of(GUARDED_SUM)
        vec = Vectorize(8, "butterfly", masked=True).run(IfConvert().run(kernel))
        short = (ARR16, 4.192660422628809, 5)  # 5 < 8 lanes
        assert run(vec, short) == run(kernel, short)

    def test_masked_map_store_widens_and_matches_scalar(self):
        src = (
            """
#include <stdio.h>
void compute(double *a, double s, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    if (a[i] > 0.0) {
      a[i] = a[i] * s;
    }
  }
  for (int i = 0; i < n; ++i) {
    comp += a[i];
  }
  printf("%.17g\\n", comp);
}
"""
            + MAIN_8
        )
        kernel = kernel_of(src)
        vec = Vectorize(4, "adjacent", masked=True).run(IfConvert().run(kernel))
        wide = [
            s for s in ir.walk_stmts(vec.body)
            if isinstance(s, ir.SMaskedStore) and s.lanes == 4
        ]
        assert len(wide) == 1
        # Map lanes are lane-wise identical to scalar stores; only the
        # trailing reduction reassociates, so values stay finite and ok.
        result = run_kernel(vec, FPEnvironment(), INPUTS_8, mode="check")
        assert result.ok, result.error

    def test_int_condition_stays_scalar(self):
        # Mask widening accepts floating comparisons only; an integer
        # guard if-converts (scalar select short-circuits harmlessly) but
        # must not widen.
        src = (
            """
#include <stdio.h>
void compute(double *a, double s, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    if (i < 4) {
      comp += a[i];
    }
  }
  printf("%.17g\\n", comp);
}
"""
            + MAIN_8
        )
        converted = IfConvert().run(kernel_of(src))
        vec = Vectorize(4, "adjacent", masked=True).run(converted)
        assert count_nodes(vec, ir.VecSelect) == 0
        assert run(vec, INPUTS_8) == run(kernel_of(src), INPUTS_8)


class TestMaskedInterp:
    def test_vecselect_evaluates_both_arms(self):
        # then-arm divides by zero in lanes the mask discards: the value
        # is computed (inf) but blended away — both arms execute.
        env = FPEnvironment()
        mask = ir.VecCmp(
            ">",
            ir.VecConst((1.0, -1.0, 2.0, -2.0), "double"),
            ir.VecConst((0.0,) * 4, "double"),
            4,
        )
        then = ir.VecBin(
            "/",
            ir.VecConst((1.0,) * 4, "double"),
            ir.VecConst((1.0, 0.0, 2.0, 0.0), "double"),
            4,
        )
        other = ir.VecConst((9.0,) * 4, "double")
        node = ir.VecSelect(mask, then, other, 4)
        kernel = ir.Kernel(
            "compute",
            (),
            (
                ir.SPrint(
                    "%.17g\\n",
                    (ir.VecReduce("+", node, 4, "double", "ladder"),),
                ),
            ),
        )
        result = run_kernel(kernel, env, (), mode="check")
        assert result.ok
        # lanes: 1.0, 9.0, 0.5, 9.0 -> ladder sum 19.5
        assert result.printed[0] == 19.5

    def test_masked_load_inactive_lane_never_traps(self):
        # Lane 3 of the load would be out of bounds; its mask bit is off,
        # so zeroing masking must skip the access entirely.
        mask = ir.VecCmp(
            ">",
            ir.VecConst((1.0, 1.0, 1.0, -1.0), "double"),
            ir.VecConst((0.0,) * 4, "double"),
            4,
        )
        load = ir.VecMaskedLoad("a", ir.IConst(1), mask, 4, "double")
        kernel = ir.Kernel(
            "compute",
            (ir.Param("a", "double*"),),
            (
                ir.SPrint(
                    "%.17g\\n",
                    (ir.VecReduce("+", load, 4, "double", "ladder"),),
                ),
            ),
        )
        result = run_kernel(kernel, FPEnvironment(), ((1.0, 2.0, 3.0, 4.0),), mode="check")
        assert result.ok, result.error
        assert result.printed[0] == 2.0 + 3.0 + 4.0  # lane 3: 0.0, no read

    def test_masked_load_active_lane_out_of_bounds_traps(self):
        mask = ir.VecCmp(
            ">",
            ir.VecConst((1.0,) * 4, "double"),
            ir.VecConst((0.0,) * 4, "double"),
            4,
        )
        load = ir.VecMaskedLoad("a", ir.IConst(1), mask, 4, "double")
        kernel = ir.Kernel(
            "compute",
            (ir.Param("a", "double*"),),
            (ir.SAssign("x", ir.VecReduce("+", load, 4, "double", "ladder"), "double"),),
        )
        result = run_kernel(kernel, FPEnvironment(), ((1.0, 2.0, 3.0, 4.0),), mode="check")
        assert result.status is ExecStatus.TRAP
        assert "out of bounds" in result.error

    def test_inverted_masked_load_reads_complement(self):
        mask = ir.VecCmp(
            ">",
            ir.VecConst((1.0, -1.0, 1.0, -1.0), "double"),
            ir.VecConst((0.0,) * 4, "double"),
            4,
        )
        load = ir.VecMaskedLoad("a", ir.IConst(0), mask, 4, "double", invert=True)
        kernel = ir.Kernel(
            "compute",
            (ir.Param("a", "double*"),),
            (
                ir.SPrint(
                    "%.17g\\n",
                    (ir.VecReduce("+", load, 4, "double", "ladder"),),
                ),
            ),
        )
        result = run_kernel(kernel, FPEnvironment(), ((1.0, 2.0, 3.0, 4.0),), mode="check")
        assert result.ok
        assert result.printed[0] == 2.0 + 4.0  # inverted: lanes 1 and 3

    def test_nan_condition_selects_else_arm(self):
        # NaN makes every ordered predicate false, scalar and lane alike.
        nan = float("nan")
        mask = ir.VecCmp(
            ">",
            ir.VecConst((nan, 1.0), "double"),
            ir.VecConst((0.0, 0.0), "double"),
            2,
        )
        node = ir.VecSelect(
            mask,
            ir.VecConst((100.0, 100.0), "double"),
            ir.VecConst((7.0, 7.0), "double"),
            2,
        )
        kernel = ir.Kernel(
            "compute",
            (),
            (ir.SPrint("%.17g\\n", (ir.VecReduce("+", node, 2, "double", "ladder"),)),),
        )
        result = run_kernel(kernel, FPEnvironment(), (), mode="check")
        assert result.printed[0] == 107.0
