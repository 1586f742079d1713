"""Comparison primitives and kind classification."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.difftest.classify import (
    ALL_KINDS,
    KindCount,
    inconsistency_kind,
    kind_label,
)
from repro.difftest.compare import (
    compare_signatures,
    digit_difference,
    value_digit_difference,
)
from repro.fp.classify import FPClass


def tier_shapes(reduction=(), masked=()):
    """A ``TIERS``-ordered shape vector carrying only the two original
    tiers' shapes (every other tier extracts nothing)."""
    from repro.tiers import MASKED_LANE, TIERS, VECTOR_REDUCTION

    sides = {VECTOR_REDUCTION: reduction, MASKED_LANE: masked}
    return tuple(sides.get(tag, ()) for tag, _ in TIERS)


def host_env(**kwargs):
    from repro.fp.env import FPEnvironment
    from repro.fp.mathlib import HostLibm

    return FPEnvironment(libm=HostLibm(), **kwargs)


class TestCompare:
    def test_equal_signatures_consistent(self):
        assert compare_signatures("ab", "ab") is True

    def test_different_inconsistent(self):
        assert compare_signatures("ab", "ac") is False

    def test_missing_side_not_comparable(self):
        assert compare_signatures(None, "ab") is None
        assert compare_signatures("ab", None) is None

    def test_digit_difference(self):
        assert digit_difference("0000", "0000") == 0
        assert digit_difference("0001", "0000") == 1
        assert digit_difference("ffff", "0000") == 4

    def test_digit_difference_shape_mismatch(self):
        with pytest.raises(ValueError):
            digit_difference("abc", "ab")

    def test_value_digit_difference_one_ulp(self):
        a = 1.0
        b = math.nextafter(1.0, 2.0)
        assert value_digit_difference(a, b) == 1

    def test_value_digit_difference_inf_vs_real(self):
        # inf vs an ordinary real differs in most of the 16 digits
        assert value_digit_difference(math.inf, 1.2345) >= 10

    @given(st.floats(allow_nan=False))
    def test_self_difference_zero(self, x):
        assert value_digit_difference(x, x) == 0


class TestKinds:
    def test_real_real(self):
        k = inconsistency_kind(1.0, 2.0)
        assert k == frozenset({FPClass.REAL})
        assert kind_label(k) == "{Real, Real}"

    def test_real_nan(self):
        k = inconsistency_kind(1.0, math.nan)
        assert kind_label(k) == "{Real, NaN}"

    def test_zero_inf(self):
        k = inconsistency_kind(0.0, math.inf)
        assert kind_label(k) == "{Zero, +Inf}"

    def test_signed_zeros_same_class(self):
        k = inconsistency_kind(0.0, -0.0)
        assert kind_label(k) == "{Zero, Zero}"

    def test_inf_inf_pair(self):
        k = inconsistency_kind(math.inf, -math.inf)
        assert kind_label(k) == "{+Inf, -Inf}"

    def test_all_kinds_count(self):
        # 5 classes -> C(5,2) + 5 same-class = 15 unordered pairs
        assert len(ALL_KINDS) == 15

    def test_kind_count_tally(self):
        kc = KindCount()
        kc.record(1.0, 2.0)
        kc.record(1.0, math.nan)
        kc.record(3.0, 4.0)
        assert kc.total == 3
        assert kc.get(FPClass.REAL) == 2
        assert kc.get(FPClass.REAL, FPClass.NAN) == 1

    def test_kind_count_merge(self):
        a, b = KindCount(), KindCount()
        a.record(1.0, 2.0)
        b.record(1.0, 2.0)
        a.merge(b)
        assert a.total == 2

    def test_as_labels_skips_zero(self):
        kc = KindCount()
        kc.record(1.0, 2.0)
        labels = kc.as_labels()
        assert labels == {"{Real, Real}": 1}


class TestVectorReductionKind:
    def _kernels(self, init="0.0"):
        from repro.frontend.parser import parse_program
        from repro.frontend.sema import check_program
        from repro.ir.lower import lower_compute
        from repro.ir.passes import Vectorize

        src = (
            "#include <stdio.h>\n"
            "void compute(double *a, int n) {\n"
            f"  double comp = {init};\n"
            "  for (int i = 0; i < n; ++i) { comp += a[i]; }\n"
            '  printf("%.17g\\n", comp);\n'
            "}\n"
            "int main(int argc, char **argv) {\n"
            "  double in_a[4] = {atof(argv[1]), atof(argv[2]), atof(argv[3]),"
            " atof(argv[4])};\n"
            "  compute(in_a, atoi(argv[5]));\n"
            "  return 0;\n"
            "}\n"
        )
        scalar = lower_compute(check_program(parse_program(src)))
        return scalar, Vectorize(4, "adjacent").run(scalar)

    def test_vector_shape_lists_reduce_sites(self):
        from repro.tiers import vector_shape

        scalar, vec = self._kernels()
        assert vector_shape(scalar) == ()
        assert vector_shape(vec) == (("+", 4, "adjacent"),)

    def test_tag_requires_equal_environments(self):
        from repro.ir.passes import Vectorize
        from repro.tiers import VECTOR_REDUCTION, structural_tag

        scalar, wide4 = self._kernels()
        wide8 = Vectorize(8, "ladder").run(scalar)
        env = host_env()
        assert structural_tag(wide4, env, wide8, env) == VECTOR_REDUCTION
        # differing environments: libm could be the cause — no tag
        assert structural_tag(wide4, env, wide8, host_env(ftz=True)) is None
        # differing scalar parts: another pass could be the cause — no tag
        other_scalar, _ = self._kernels(init="1.0")
        other8 = Vectorize(8, "ladder").run(other_scalar)
        assert structural_tag(wide4, env, other8, env) is None
        # identical shapes: nothing vector-related to blame
        assert structural_tag(wide4, env, wide4, env) is None

    def test_style_difference_alone_tags(self):
        from repro.tiers import VECTOR_REDUCTION, structural_tag_from_shapes

        adjacent = tier_shapes(reduction=(("+", 4, "adjacent"),))
        ladder = tier_shapes(reduction=(("+", 4, "ladder"),))
        assert structural_tag_from_shapes(adjacent, ladder) == VECTOR_REDUCTION

    def test_devectorized_bodies_are_width_independent(self):
        from repro.difftest.classify import devectorized_body
        from repro.ir.passes import Vectorize

        scalar, _ = self._kernels()
        wide4 = Vectorize(4, "adjacent").run(scalar)
        wide8 = Vectorize(8, "ladder").run(scalar)
        assert devectorized_body(wide4) == devectorized_body(wide8)
        # ... but the stripped body is not the never-vectorized kernel's
        # (the induction init is hoisted out of the rewritten loop)
        assert devectorized_body(wide4) != scalar.body

    def test_scalar_divergence_near_vector_loop_is_not_tagged(self):
        """Regression: a program *containing* a vectorizable loop must not
        be tagged when the divergence comes from an unrelated scalar
        transform.  gcc and clang reassociate this 5-term sum differently
        at O3_fastmath while the 2-trip loop's vector body never runs —
        the record carries no vector-reduction tag, matching the
        bisector's non-vectorize attribution."""
        from repro.difftest.config import CampaignConfig
        from repro.difftest.engine import CampaignEngine
        from repro.generation.program import GeneratedProgram
        from repro.toolchains import ClangCompiler, GccCompiler, OptLevel

        src = (
            "#include <stdio.h>\n"
            "void compute(double *a, double b, double c, double d, double e,"
            " int n) {\n"
            "  double comp = 0.0;\n"
            "  for (int i = 0; i < n; ++i) { comp += a[i]; }\n"
            "  comp += b + c + d + e + 0.1;\n"
            '  printf("%.17g\\n", comp);\n'
            "}\n"
            "int main(int argc, char **argv) {\n"
            "  double in_a[2] = {atof(argv[1]), atof(argv[2])};\n"
            "  compute(in_a, atof(argv[3]), atof(argv[4]), atof(argv[5]),"
            " atof(argv[6]), atoi(argv[7]));\n"
            "  return 0;\n"
            "}\n"
        )
        inputs = ((0.5, 0.25), 1e16, 1.0, -1e16, 1.0, 2)
        engine = CampaignEngine(
            [GccCompiler(), ClangCompiler()], CampaignConfig(budget=1)
        )
        outcome = engine.test_program(
            0, GeneratedProgram(source=src, inputs=inputs)
        )
        fastmath = [
            c
            for c in outcome.inconsistent_comparisons
            if c.level is OptLevel.O3_FASTMATH
        ]
        assert fastmath, "reassociation styles must split the hosts here"
        assert all(c.tag is None for c in fastmath)

    def test_vector_condition_stripped_width_independently(self):
        """Regression: a compound statement whose *condition* carries
        vector nodes must not make devectorized bodies width-dependent —
        the old strip kept conditions verbatim, so masks of two widths
        produced spuriously different fingerprints."""
        from repro.difftest.classify import devectorized_body
        from repro.ir import nodes as ir

        def kernel_with_mask_cond(lanes):
            cond = ir.Compare(
                ">",
                ir.VecReduce(
                    "+", ir.VecConst((1.0,) * lanes, "double"), lanes, "double"
                ),
                ir.FConst(0.0),
                fp=True,
            )
            return ir.Kernel(
                "compute",
                (),
                (
                    ir.SIf(cond, (ir.SAssign("x", ir.FConst(1.0), "double"),)),
                    ir.SWhile(cond, ()),
                ),
            )

        assert devectorized_body(kernel_with_mask_cond(4)) == devectorized_body(
            kernel_with_mask_cond(8)
        )
        stripped = devectorized_body(kernel_with_mask_cond(4))
        # the scalar assignment inside survives; the vector cond does not
        assert any(isinstance(s, ir.SIf) for s in ir.walk_stmts(stripped))
        assert all(
            not isinstance(e, ir.ANY_VECTOR_NODES)
            for s in ir.walk_stmts(stripped)
            for top in ir.stmt_exprs(s)
            for e in ir.walk(top)
        )

    def test_nested_vector_loop_strips_without_hiding_scalar_code(self):
        """Regression: a vectorizable loop nested inside outer control
        flow must not drag its surrounding scalar statements out of the
        devectorized body — otherwise scalar divergence sources hide and
        the tag misfires."""
        from repro.difftest.config import CampaignConfig
        from repro.difftest.engine import CampaignEngine
        from repro.generation.program import GeneratedProgram
        from repro.toolchains import ClangCompiler, GccCompiler, OptLevel

        src = (
            "#include <stdio.h>\n"
            "void compute(double *a, double b, double c, double d, double e,"
            " int n) {\n"
            "  double comp = 0.0;\n"
            "  for (int j = 0; j < 1; ++j) {\n"
            "    for (int i = 0; i < n; ++i) { comp += a[i]; }\n"
            "    comp += b + c + d + e + 0.1;\n"
            "  }\n"
            '  printf("%.17g\\n", comp);\n'
            "}\n"
            "int main(int argc, char **argv) {\n"
            "  double in_a[2] = {atof(argv[1]), atof(argv[2])};\n"
            "  compute(in_a, atof(argv[3]), atof(argv[4]), atof(argv[5]),"
            " atof(argv[6]), atoi(argv[7]));\n"
            "  return 0;\n"
            "}\n"
        )
        inputs = ((0.5, 0.25), 1e16, 1.0, -1e16, 1.0, 2)
        engine = CampaignEngine(
            [GccCompiler(), ClangCompiler()], CampaignConfig(budget=1)
        )
        outcome = engine.test_program(
            0, GeneratedProgram(source=src, inputs=inputs)
        )
        fastmath = [
            c
            for c in outcome.inconsistent_comparisons
            if c.level is OptLevel.O3_FASTMATH
        ]
        assert fastmath, "reassociation styles must split the hosts here"
        assert all(c.tag is None for c in fastmath)


class TestMaskedLaneKind:
    GUARDED = (
        "#include <stdio.h>\n"
        "void compute(double *a, int n) {\n"
        "  double comp = 0.0;\n"
        "  for (int i = 0; i < n; ++i) {\n"
        "    if (a[i] > 0.0) { comp += a[i]; }\n"
        "  }\n"
        '  printf("%.17g\\n", comp);\n'
        "}\n"
        "int main(int argc, char **argv) {\n"
        "  double in_a[16];\n"
        "  for (int i = 0; i < 16; ++i) { in_a[i] = atof(argv[1 + i]); }\n"
        "  compute(in_a, atoi(argv[17]));\n"
        "  return 0;\n"
        "}\n"
    )
    ARR16 = (
        -2.161244991344777, 16.744850325199423, -2140.123310536274,
        -667.4296376438043, 33.12432414736006, 8604.15565518937,
        4.366101377828139, -373427.6696042438, -13.557686496180793,
        -856.9062739358501, 2.8392700153319588, 46.56981918402771,
        6.836221364114393, 21.37550366737585, -134.8944261290064,
        294524.6182501556,
    )

    def _masked_kernel(self, style="adjacent", width=4):
        from repro.frontend.parser import parse_program
        from repro.frontend.sema import check_program
        from repro.ir.lower import lower_compute
        from repro.ir.passes import IfConvert, Vectorize

        scalar = lower_compute(check_program(parse_program(self.GUARDED)))
        return scalar, Vectorize(width, style, masked=True).run(
            IfConvert().run(scalar)
        )

    def test_masked_shape_lists_mask_sites(self):
        from repro.tiers import masked_shape

        scalar, vec = self._masked_kernel()
        assert masked_shape(scalar) == ()
        kinds = {site[0] for site in masked_shape(vec)}
        # the masked region's own reduction belongs to the mask tier
        assert kinds == {"cmp", "select", "mload", "reduce"}

    def test_walkers_leave_no_reference_cycles(self):
        """Both structural walkers free everything by reference counting:
        no function<->cell cycle is left for the cyclic GC."""
        import gc

        from repro.difftest.classify import devectorized_body
        from repro.tiers import masked_shape

        _, vec = self._masked_kernel()
        gc.collect()
        gc.disable()
        try:
            assert masked_shape(vec)
            assert devectorized_body(vec)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_masked_shape_excludes_unmasked_reductions(self):
        """A plain (unguarded) vectorized reduction contributes to
        vector_shape but not to masked_shape — so a style divergence in
        an unmasked loop next to identically-masked code still tags
        vector-reduction, not masked-lane."""
        from repro.frontend.parser import parse_program
        from repro.frontend.sema import check_program
        from repro.ir.lower import lower_compute
        from repro.ir.passes import IfConvert, Vectorize
        from repro.tiers import masked_shape, vector_shape

        src = (
            "#include <stdio.h>\n"
            "void compute(double *a, double *b, int n) {\n"
            "  double comp = 0.0;\n"
            "  for (int i = 0; i < n; ++i) {\n"
            "    if (a[i] > 0.0) { b[i] = a[i]; }\n"
            "  }\n"
            "  for (int i = 0; i < n; ++i) { comp += a[i]; }\n"
            '  printf("%.17g\\n", comp);\n'
            "}\n"
            "int main(int argc, char **argv) {\n"
            "  double in_a[8];\n"
            "  double in_b[8];\n"
            "  for (int i = 0; i < 8; ++i) { in_a[i] = atof(argv[1 + i]);"
            " in_b[i] = 0.0; }\n"
            "  compute(in_a, in_b, atoi(argv[9]));\n"
            "  return 0;\n"
            "}\n"
        )
        scalar = lower_compute(check_program(parse_program(src)))
        adjacent = Vectorize(4, "adjacent", masked=True).run(IfConvert().run(scalar))
        ladder = Vectorize(4, "ladder", masked=True).run(IfConvert().run(scalar))
        # the guarded map masked identically on both sides ...
        assert masked_shape(adjacent) == masked_shape(ladder) != ()
        assert all(site[0] != "reduce" for site in masked_shape(adjacent))
        # ... while the unmasked reduction's style differs
        assert vector_shape(adjacent) != vector_shape(ladder)

    def test_scalar_select_form_has_no_masked_shape(self):
        from repro.frontend.parser import parse_program
        from repro.frontend.sema import check_program
        from repro.ir.lower import lower_compute
        from repro.ir.passes import IfConvert
        from repro.tiers import masked_shape

        scalar = lower_compute(check_program(parse_program(self.GUARDED)))
        assert masked_shape(IfConvert().run(scalar)) == ()

    def test_structural_tag_precedence(self):
        from repro.tiers import MASKED_LANE, VECTOR_REDUCTION, structural_tag_from_shapes

        def structural_tag(plain_a, plain_b, masked_a, masked_b):
            return structural_tag_from_shapes(
                tier_shapes(reduction=plain_a, masked=masked_a),
                tier_shapes(reduction=plain_b, masked=masked_b),
            )

        plain_a, plain_b = (("+", 4, "adjacent"),), (("+", 4, "ladder"),)
        masked = (("cmp", ">", 4), ("select", 4), ("reduce", "+", 4, "adjacent"))
        masked_other = (("cmp", ">", 4), ("select", 4), ("reduce", "+", 4, "ladder"))
        # differing masked shapes name the narrower mechanism
        assert structural_tag(plain_a, plain_b, masked, masked_other) == MASKED_LANE
        assert structural_tag(plain_a, plain_a, masked, ()) == MASKED_LANE
        # identical masked shapes + differing reduction shapes: the
        # divergence came from an *unmasked* loop — plain vector-reduction
        assert structural_tag(plain_a, plain_b, masked, masked) == VECTOR_REDUCTION
        assert structural_tag(plain_a, plain_b, (), ()) == VECTOR_REDUCTION
        # identical shapes on both axes: nothing structural to blame
        assert structural_tag(plain_a, plain_a, masked, masked) is None

    def test_preconditions_gate_the_masked_tag(self):
        from repro.tiers import MASKED_LANE, structural_tag

        scalar, adjacent = self._masked_kernel("adjacent")
        _, ladder = self._masked_kernel("ladder")
        env = host_env()
        assert structural_tag(adjacent, env, ladder, env) == MASKED_LANE
        # differing environments: no tag, whatever the shapes
        assert structural_tag(adjacent, env, ladder, host_env(ftz=True)) is None
        # differing scalar parts: the never-vectorized kernel keeps its
        # induction init in the loop, so it strips to a different body
        assert structural_tag(adjacent, env, scalar, env) is None

    def test_masked_lane_tag_end_to_end(self):
        """gcc vs clang at O3: both if-convert identically, both widen to
        8 lanes, but reduce horizontally in different styles — the
        comparison carries the masked-lane tag."""
        from repro.difftest.config import CampaignConfig
        from repro.difftest.engine import CampaignEngine
        from repro.generation.program import GeneratedProgram
        from repro.tiers import MASKED_LANE
        from repro.toolchains import ClangCompiler, GccCompiler, OptLevel

        engine = CampaignEngine(
            [GccCompiler(), ClangCompiler()], CampaignConfig(budget=1)
        )
        outcome = engine.test_program(
            0,
            GeneratedProgram(source=self.GUARDED, inputs=(self.ARR16, 16)),
        )
        o3 = [
            c
            for c in outcome.inconsistent_comparisons
            if c.level in (OptLevel.O3, OptLevel.O3_FASTMATH)
        ]
        assert o3, "the hosts' masked reduction styles must split here"
        assert all(c.tag == MASKED_LANE for c in o3)
        # at O2 neither host if-converts: the guarded loop stays a scalar
        # branch on both sides, so O2 comparisons agree
        assert all(
            c.consistent for c in outcome.comparisons if c.level is OptLevel.O2
        )
