"""The divergence-tier table: shapes and tag precedence."""

import importlib

import pytest

from repro.fp.env import FPEnvironment
from repro.fp.mathlib import ClangVecLibm, GccVecLibm, HostLibm
from repro.frontend.parser import parse_program
from repro.frontend.sema import check_program
from repro.ir.lower import lower_compute
from repro.ir.passes import IfConvert, Vectorize
from repro.tiers import (
    MASKED_INT_GUARD,
    MASKED_LANE,
    MIXED_PRECISION,
    TIERS,
    VEC_LIBM,
    VECTOR_REDUCTION,
    int_guard_shape,
    mixed_precision_shape,
    shape_vector,
    structural_tag,
    structural_tag_from_shapes,
    veclibm_shape,
)


def kernel_of(source):
    return lower_compute(check_program(parse_program(source)))


CALL_REDUCTION = """
#include <stdio.h>
#include <math.h>
void compute(double *a, double s, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    comp += sin(a[i]) * s;
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  double in_a[8] = {atof(argv[1]), atof(argv[2]), atof(argv[3]), atof(argv[4]),
                    atof(argv[5]), atof(argv[6]), atof(argv[7]), atof(argv[8])};
  compute(in_a, atof(argv[9]), atoi(argv[10]));
  return 0;
}
"""

MIXED_REDUCTION = CALL_REDUCTION.replace("sin(a[i]) * s", "(float)(a[i]) * (float)(s)")

GUARDED_CALL = """
#include <stdio.h>
#include <math.h>
void compute(double *a, double s, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    if (a[i] > 0.0) {
      comp += sin(a[i]) * s;
    }
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  double in_a[8] = {atof(argv[1]), atof(argv[2]), atof(argv[3]), atof(argv[4]),
                    atof(argv[5]), atof(argv[6]), atof(argv[7]), atof(argv[8])};
  compute(in_a, atof(argv[9]), atoi(argv[10]));
  return 0;
}
"""

INT_GUARDED = GUARDED_CALL.replace("a[i] > 0.0", "i < n - 2").replace(
    "sin(a[i]) * s", "a[i] * s"
)


def vectorized(source, *, width=4, style="adjacent", masked=False,
               int_guards=False, mixed=False):
    kernel = kernel_of(source)
    if masked or int_guards:
        kernel = IfConvert().run(kernel)
    return Vectorize(
        width, style, masked=masked, int_guards=int_guards, mixed=mixed
    ).run(kernel)


class TestRegistryContents:
    def test_ranks_and_precedence_order(self):
        # The table's order is the tags' precedence: the most specific
        # mechanism first.
        assert [tag for tag, _ in TIERS] == [
            VEC_LIBM, MIXED_PRECISION, MASKED_INT_GUARD, MASKED_LANE,
            VECTOR_REDUCTION,
        ]


class TestShapeExtractors:
    def test_veclibm_shape_empty_without_library_or_calls(self):
        kernel = vectorized(CALL_REDUCTION)
        assert veclibm_shape(kernel, None) == ()
        assert veclibm_shape(kernel, FPEnvironment(libm=HostLibm())) == ()
        plain = vectorized(MIXED_REDUCTION, mixed=True)  # no calls
        env = FPEnvironment(libm=HostLibm(), veclibm=GccVecLibm())
        assert veclibm_shape(plain, env) == ()

    def test_veclibm_shape_leads_with_library_identity(self):
        kernel = vectorized(CALL_REDUCTION)
        gcc_env = FPEnvironment(libm=HostLibm(), veclibm=GccVecLibm())
        clang_env = FPEnvironment(libm=HostLibm(), veclibm=ClangVecLibm())
        sa, sb = veclibm_shape(kernel, gcc_env), veclibm_shape(kernel, clang_env)
        assert sa[0] == ("lib", "PerturbedLibm", "libmvec")
        assert sb[0] == ("lib", "PerturbedLibm", "sleef")
        assert sa[1:] == sb[1:] == (("call", "sin", 4, "double"),)

    def test_mixed_precision_shape_carries_conversions_and_reductions(self):
        kernel = vectorized(MIXED_REDUCTION, mixed=True)
        shape = mixed_precision_shape(kernel)
        assert ("trunc", 4) in shape
        assert any(site[0] == "reduce" for site in shape)
        assert mixed_precision_shape(vectorized(CALL_REDUCTION)) == ()

    def test_int_guard_shape_only_for_integer_masks(self):
        iguard = vectorized(INT_GUARDED, masked=True, int_guards=True)
        shape = int_guard_shape(iguard)
        assert shape and shape[0] == ("icmp", "<", 4)
        fguard = vectorized(GUARDED_CALL, masked=True)
        assert int_guard_shape(fguard) == ()

    def test_shape_vector_is_positional_registry_order(self):
        kernel = vectorized(CALL_REDUCTION)
        env = FPEnvironment(libm=HostLibm(), veclibm=GccVecLibm())
        shapes = shape_vector(kernel, env)
        assert len(shapes) == len(TIERS)
        assert shapes[0] == veclibm_shape(kernel, env)
        assert shapes[-1][0] == ("+", 4, "adjacent")


class TestTagPrecedence:
    def _pair(self, source, **kwargs):
        """The same kernel widened the gcc way and the clang way."""
        env_a = FPEnvironment(libm=HostLibm(), veclibm=GccVecLibm())
        env_b = FPEnvironment(libm=HostLibm(), veclibm=ClangVecLibm())
        ka = vectorized(source, style="adjacent", **kwargs)
        kb = vectorized(source, style="ladder", **kwargs)
        return shape_vector(ka, env_a), shape_vector(kb, env_b)

    def test_preconditions_gate_every_tag(self):
        # The same kernel widened the gcc way and the clang way: its
        # vec-libm and reduction shapes differ.
        env_a = FPEnvironment(libm=HostLibm(), veclibm=GccVecLibm())
        env_b = FPEnvironment(libm=HostLibm(), veclibm=ClangVecLibm())
        ka = vectorized(CALL_REDUCTION, style="adjacent")
        kb = vectorized(CALL_REDUCTION, style="ladder")
        assert structural_tag(ka, env_a, kb, env_b) == VEC_LIBM
        # differing scalar environments: no tag
        ftz = FPEnvironment(libm=HostLibm(), veclibm=ClangVecLibm(), ftz=True)
        assert structural_tag(ka, env_a, kb, ftz) is None
        # differing scalar parts: no tag, although the shapes differ
        kc = vectorized(MIXED_REDUCTION, style="ladder", mixed=True)
        assert shape_vector(ka, env_a) != shape_vector(kc, env_b)
        assert structural_tag(ka, env_a, kc, env_b) is None

    def test_equal_shapes_tag_nothing(self):
        kernel = vectorized(CALL_REDUCTION)
        env = FPEnvironment(libm=HostLibm(), veclibm=GccVecLibm())
        shapes = shape_vector(kernel, env)
        assert structural_tag_from_shapes(shapes, shapes) is None

    def test_masked_plus_veclibm_kernel_tags_vec_libm_deterministically(self):
        # Satellite regression: a kernel that is simultaneously masked AND
        # calls through a vector math library must tag the more specific
        # family — vec-libm precedes masked-lane in the table.
        sa, sb = self._pair(GUARDED_CALL, masked=True)
        assert sa[0] != sb[0]  # vec-libm shapes differ (lib identity)
        assert sa[3] != sb[3]  # masked shapes differ too (reduce style)
        for _ in range(3):
            assert structural_tag_from_shapes(sa, sb) == VEC_LIBM

    def test_reduction_style_alone_tags_vector_reduction(self):
        env = FPEnvironment(libm=HostLibm())
        ka = vectorized(CALL_REDUCTION, style="adjacent")
        kb = vectorized(CALL_REDUCTION, style="ladder")
        tag = structural_tag_from_shapes(
            shape_vector(ka, env), shape_vector(kb, env)
        )
        assert tag == VECTOR_REDUCTION

    def test_mixed_precision_outranks_vector_reduction(self):
        env = FPEnvironment(libm=HostLibm())
        ka = vectorized(MIXED_REDUCTION, style="adjacent", mixed=True)
        kb = vectorized(MIXED_REDUCTION, style="ladder", mixed=True)
        tag = structural_tag_from_shapes(
            shape_vector(ka, env), shape_vector(kb, env)
        )
        assert tag == MIXED_PRECISION

    def test_int_guard_outranks_masked_lane(self):
        env = FPEnvironment(libm=HostLibm())
        ka = vectorized(INT_GUARDED, style="adjacent", masked=True, int_guards=True)
        kb = vectorized(INT_GUARDED, style="ladder", masked=True, int_guards=True)
        tag = structural_tag_from_shapes(
            shape_vector(ka, env), shape_vector(kb, env)
        )
        assert tag == MASKED_INT_GUARD


class TestLazyStructuralTag:
    """``structural_tag`` reaches the eager verdict, extracting only what
    the verdict needs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count the helper's extractor calls."""
        module = importlib.import_module("repro.tiers.registry")
        counts = {"shape_vector": 0, "devectorized_fingerprint": 0}

        def counting(name):
            original = getattr(module, name)

            def counted(*args):
                counts[name] += 1
                return original(*args)

            return counted

        for name in counts:
            monkeypatch.setattr(module, name, counting(name))
        return counts

    def test_lazy_structural_tag_agrees_with_shapes(self):
        env = FPEnvironment(libm=HostLibm())
        ka = vectorized(GUARDED_CALL, style="adjacent", masked=True)
        kb = vectorized(GUARDED_CALL, style="ladder", masked=True)
        eager = structural_tag_from_shapes(
            shape_vector(ka, env), shape_vector(kb, env)
        )
        assert eager == MASKED_LANE
        assert structural_tag(ka, env, kb, env) == eager

    def test_veclibm_difference_alone_still_tags(self):
        # The vec-libm binding is outside the scalar environment key.
        kernel = vectorized(CALL_REDUCTION)
        env_a = FPEnvironment(libm=HostLibm(), veclibm=GccVecLibm())
        env_b = FPEnvironment(libm=HostLibm(), veclibm=ClangVecLibm())
        assert structural_tag(kernel, env_a, kernel, env_b) == VEC_LIBM

    def test_env_unequal_pairs_extract_nothing(self, calls):
        kernel = vectorized(CALL_REDUCTION)
        env_a = FPEnvironment(libm=HostLibm())
        env_b = FPEnvironment(libm=HostLibm(), ftz=True)
        assert structural_tag(kernel, env_a, kernel, env_b) is None
        assert calls == {"shape_vector": 0, "devectorized_fingerprint": 0}

    def test_scalar_unequal_pairs_extract_no_shapes(self, calls):
        env = FPEnvironment(libm=HostLibm())
        ka = vectorized(CALL_REDUCTION)
        kb = vectorized(MIXED_REDUCTION)
        assert structural_tag(ka, env, kb, env) is None
        assert calls == {"shape_vector": 0, "devectorized_fingerprint": 2}

    def test_memo_extracts_each_kernel_once(self, calls):
        env = FPEnvironment(libm=HostLibm())
        ka = vectorized(CALL_REDUCTION, style="adjacent")
        kb = vectorized(CALL_REDUCTION, style="ladder")
        kc = vectorized(CALL_REDUCTION, width=2)
        memo = {}
        for other in (kb, kc, kb):
            assert structural_tag(ka, env, other, env, memo) == VECTOR_REDUCTION
        assert calls == {"shape_vector": 3, "devectorized_fingerprint": 3}
