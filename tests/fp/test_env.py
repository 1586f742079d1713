"""FPEnvironment semantics: per-op precision, FTZ, approximate units."""

import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.env import FPEnvironment
from repro.fp.mathlib import CudaLibm, HostLibm
from repro.fp.ulp import ulp_distance

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestDoubleArithmetic:
    def setup_method(self):
        self.env = FPEnvironment()

    def test_basic_ops(self):
        assert self.env.add(1.5, 2.25) == 3.75
        assert self.env.sub(1.0, 0.25) == 0.75
        assert self.env.mul(3.0, 4.0) == 12.0
        assert self.env.div(1.0, 8.0) == 0.125

    def test_div_by_zero_is_inf(self):
        assert self.env.div(1.0, 0.0) == math.inf
        assert self.env.div(-1.0, 0.0) == -math.inf

    def test_zero_div_zero_is_nan(self):
        assert math.isnan(self.env.div(0.0, 0.0))

    def test_overflow_to_inf(self):
        assert self.env.mul(1e308, 1e308) == math.inf

    def test_neg(self):
        assert self.env.neg(2.0) == -2.0
        assert math.copysign(1.0, self.env.neg(0.0)) == -1.0

    def test_fma_single_rounding(self):
        a = 1.0 + 2.0**-30
        assert self.env.fma(a, a, -1.0) != self.env.add(self.env.mul(a, a), -1.0)

    @given(finite, finite)
    @settings(max_examples=200)
    def test_matches_native_double(self, a, b):
        assert self.env.add(a, b) == a + b or (
            math.isnan(self.env.add(a, b)) and math.isnan(a + b)
        )


class TestSingleArithmetic:
    def setup_method(self):
        self.env = FPEnvironment()

    def test_rounding_to_single(self):
        # 1 + 2^-25 is not representable in binary32.
        assert self.env.add(1.0, 2.0**-25, "float") == 1.0

    def test_single_overflow(self):
        assert self.env.mul(1e38, 10.0, "float") == math.inf

    def test_canon(self):
        assert self.env.canon(0.1, "float") == float.fromhex("0x1.99999a0000000p-4")

    def test_canon_overflow_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.env.canon(1e300, "float") == math.inf
            assert self.env.canon(-1e300, "float") == -math.inf

    def test_fma_single(self):
        assert self.env.fma(3.0, 5.0, 7.0, "float") == 22.0

    def test_single_div(self):
        r = self.env.div(1.0, 3.0, "float")
        assert r == float.fromhex("0x1.5555560000000p-2")


class TestFtz:
    def test_subnormal_result_flushed(self):
        env = FPEnvironment(ftz=True)
        r = env.mul(1e-308, 1e-10)  # subnormal product
        assert r == 0.0

    def test_subnormal_input_flushed(self):
        env = FPEnvironment(ftz=True)
        assert env.add(5e-324, 0.0) == 0.0

    def test_sign_preserved(self):
        env = FPEnvironment(ftz=True)
        r = env.mul(-1e-308, 1e-10)
        assert r == 0.0 and math.copysign(1.0, r) == -1.0

    def test_normals_untouched(self):
        env = FPEnvironment(ftz=True)
        assert env.add(1.0, 2.0) == 3.0

    def test_no_ftz_keeps_subnormal(self):
        env = FPEnvironment(ftz=False)
        assert env.mul(1e-308, 1e-10) != 0.0

    def test_single_ftz_threshold(self):
        env = FPEnvironment(ftz=True)
        # subnormal in binary32, normal in binary64
        assert env.add(1e-40, 0.0, "float") == 0.0
        assert env.add(1e-40, 0.0, "double") == 1e-40


class TestApproxUnits:
    def test_approx_div_within_two_ulp(self):
        strict = FPEnvironment()
        approx = FPEnvironment(approx_div=True)
        worst, diffs = 0, 0
        for i in range(1, 300):
            a, b = 1.0 + i * 0.013, 3.0 + i * 0.007
            r1, r2 = strict.div(a, b), approx.div(a, b)
            if r1 != r2:
                diffs += 1
                worst = max(worst, ulp_distance(r1, r2))
        assert diffs > 30  # the approximation is visible
        assert worst <= 2  # ... but bounded like the hardware unit

    def test_approx_sqrt(self):
        strict = FPEnvironment()
        approx = FPEnvironment(approx_sqrt=True)
        diffs = sum(
            strict.call("sqrt", (1.0 + 0.1 * i,)) != approx.call("sqrt", (1.0 + 0.1 * i,))
            for i in range(200)
        )
        assert diffs > 20

    def test_approx_div_deterministic(self):
        env = FPEnvironment(approx_div=True)
        assert env.div(7.3, 1.9) == env.div(7.3, 1.9)


class TestLibmBinding:
    def test_host_vs_device_calls_differ_somewhere(self):
        host = FPEnvironment(libm=HostLibm())
        dev = FPEnvironment(libm=CudaLibm())
        diffs = sum(
            host.call("sin", (0.2 + 0.03 * i,)) != dev.call("sin", (0.2 + 0.03 * i,))
            for i in range(200)
        )
        assert diffs > 30

    def test_describe(self):
        env = FPEnvironment(libm=CudaLibm(), ftz=True, approx_div=True)
        s = env.describe()
        assert "cuda" in s and "ftz" in s and "approx-div" in s
