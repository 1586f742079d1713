"""Math-library model contracts: determinism, accuracy bounds, decorrelation."""

import math
import random
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.bits import double_to_bits
from repro.fp.formats import FP32
from repro.fp.mathlib import (
    MATH_FUNCTIONS,
    CorrectlyRoundedLibm,
    CudaLibm,
    FastCudaLibm,
    FastHostLibm,
    HostLibm,
    _c_function,
    _c_semantics,
)
from repro.fp.ulp import ulp_distance

args_f = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestRegistry:
    def test_known_functions_present(self):
        for name in ("sin", "cos", "exp", "log", "sqrt", "pow", "atan2", "fmin"):
            assert name in MATH_FUNCTIONS

    def test_exact_flags(self):
        assert MATH_FUNCTIONS["sqrt"].exact
        assert MATH_FUNCTIONS["fabs"].exact
        assert not MATH_FUNCTIONS["sin"].exact
        assert not MATH_FUNCTIONS["pow"].exact

    def test_arities(self):
        assert MATH_FUNCTIONS["sin"].arity == 1
        assert MATH_FUNCTIONS["pow"].arity == 2
        assert MATH_FUNCTIONS["fmod"].arity == 2


class TestCorrectlyRounded:
    def test_matches_python_math(self):
        cr = CorrectlyRoundedLibm()
        assert cr.call("sin", (1.0,)) == math.sin(1.0)
        assert cr.call("exp", (2.5,)) == math.exp(2.5)

    def test_domain_errors_give_nan(self):
        cr = CorrectlyRoundedLibm()
        assert math.isnan(cr.call("log", (-1.0,)))
        assert math.isnan(cr.call("sqrt", (-4.0,)))
        assert math.isnan(cr.call("asin", (2.0,)))

    def test_overflow_gives_inf(self):
        cr = CorrectlyRoundedLibm()
        assert cr.call("exp", (1e4,)) == math.inf
        assert cr.call("cosh", (1e4,)) == math.inf

    def test_pow_edge_cases(self):
        cr = CorrectlyRoundedLibm()
        assert cr.call("pow", (0.0, 0.0)) == 1.0
        assert cr.call("pow", (2.0, 10.0)) == 1024.0

    def test_unknown_function_rejected(self):
        with pytest.raises(KeyError):
            CorrectlyRoundedLibm().call("frobnicate", (1.0,))

    def test_wrong_arity_rejected(self):
        with pytest.raises(TypeError):
            CorrectlyRoundedLibm().call("sin", (1.0, 2.0))

    def test_fp32_rounds_to_single(self):
        cr = CorrectlyRoundedLibm()
        r = cr.call("sin", (1.0,), FP32)
        import struct

        assert struct.unpack("<f", struct.pack("<f", r))[0] == r


class TestPerturbedContracts:
    def test_deterministic(self):
        lib = HostLibm()
        assert lib.call("sin", (1.2345,)) == lib.call("sin", (1.2345,))

    def test_fresh_instances_agree(self):
        assert HostLibm().call("log", (7.7,)) == HostLibm().call("log", (7.7,))

    def test_exact_functions_never_perturbed(self):
        cr = CorrectlyRoundedLibm()
        for lib in (HostLibm(), CudaLibm(), FastCudaLibm()):
            for x in (2.0, 3.7, 123.456, 1e-20):
                assert lib.call("sqrt", (x,)) == cr.call("sqrt", (x,))
                assert lib.call("fabs", (-x,)) == x

    def test_trivial_points_exact(self):
        for lib in (HostLibm(), CudaLibm()):
            assert lib.call("sin", (0.0,)) == 0.0
            assert lib.call("exp", (0.0,)) == 1.0
            assert lib.call("cos", (0.0,)) == 1.0
            assert lib.call("pow", (2.0, 10.0)) == 1024.0

    @given(args_f)
    @settings(max_examples=200)
    def test_host_within_one_ulp(self, x):
        cr = CorrectlyRoundedLibm().call("sin", (x,))
        host = HostLibm().call("sin", (x,))
        if math.isfinite(cr) and math.isfinite(host):
            assert ulp_distance(cr, host) <= 1

    @given(args_f)
    @settings(max_examples=200)
    def test_cuda_within_two_ulp(self, x):
        cr = CorrectlyRoundedLibm().call("exp", (x,))
        dev = CudaLibm().call("exp", (x,))
        if math.isfinite(cr) and math.isfinite(dev):
            assert ulp_distance(cr, dev) <= 2

    def test_host_and_cuda_decorrelate(self):
        """The libraries must disagree on a healthy fraction of inputs —
        this is the host-device inconsistency engine."""
        host, dev = HostLibm(), CudaLibm()
        diffs = sum(
            host.call("sin", (0.1 + 0.01 * i,)) != dev.call("sin", (0.1 + 0.01 * i,))
            for i in range(200)
        )
        assert 40 <= diffs <= 190

    def test_host_self_consistent_across_functions(self):
        """Two *host* compilers linking the same libm agree everywhere."""
        a, b = HostLibm(), HostLibm()
        for i in range(100):
            x = 0.05 + 0.037 * i
            for fn in ("sin", "log", "exp", "tanh"):
                assert a.call(fn, (x,)) == b.call(fn, (x,))

    def test_fast_libms_coarser(self):
        cr = CorrectlyRoundedLibm()
        fast = FastCudaLibm()
        worst = 0
        for i in range(200):
            x = 0.3 + 0.05 * i
            r, f = cr.call("sin", (x,)), fast.call("sin", (x,))
            if math.isfinite(r) and math.isfinite(f):
                worst = max(worst, ulp_distance(r, f))
        assert worst > 2  # visibly worse than the precise libraries
        assert worst <= 8

    def test_nan_inf_zero_never_perturbed(self):
        for lib in (HostLibm(), CudaLibm(), FastHostLibm()):
            assert math.isnan(lib.call("log", (-5.0,)))
            assert lib.call("exp", (1e5,)) == math.inf
            assert lib.call("atan", (0.0,)) == 0.0


class TestCFunctionFallback:
    """``cbrt`` and ``exp2`` are the C library's on every Python version.

    Before 3.11, :mod:`math` has neither, and ``_c_semantics`` calls the C
    library through ctypes instead of approximating with ``**``.
    """

    #: glibc bits.  ``abs(x) ** (1/3)`` and ``2.0 ** x`` miss every cbrt
    #: row and the last two exp2 rows.
    PINNED = [
        ("cbrt", 27.0, 0x4008000000000001),
        ("cbrt", 2.0, 0x3FF428A2F98D728C),
        ("cbrt", -3.5, 0xBFF84AEF28ACCD49),
        ("cbrt", 5e-324, 0x298FFFFFFFFFFFFF),
        ("exp2", 0.5, 0x3FF6A09E667F3BCD),
        ("exp2", -1074.5, 0x1),
        ("exp2", 449.83306281474665, 0x5C0C80DFBA8410F4),
        ("exp2", 60.666416189320444, 0x43B964DDAE9E1C0A),
    ]

    @pytest.mark.parametrize("name, x, bits", PINNED)
    def test_pinned_bits(self, name, x, bits):
        assert double_to_bits(_c_semantics(name, (x,))) == bits

    def test_special_values(self):
        assert _c_semantics("exp2", (2000.0,)) == math.inf
        assert _c_semantics("cbrt", (-math.inf,)) == -math.inf
        assert double_to_bits(_c_semantics("cbrt", (-0.0,))) == double_to_bits(-0.0)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="math.cbrt/exp2 are 3.11+")
    @pytest.mark.parametrize("name", ["cbrt", "exp2"])
    def test_ctypes_matches_math(self, name):
        rng = random.Random(20250916)
        c_fn, py_fn = _c_function(name), getattr(math, name)
        for i in range(6000):
            # Raw bit patterns reach NaNs, infinities and subnormals; most
            # of them overflow exp2, so half the sweep stays in its range.
            if i % 2:
                x = rng.uniform(-1100.0, 1100.0)
            else:
                x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            try:
                expected = py_fn(x)
            except OverflowError:
                expected = math.inf
            assert double_to_bits(c_fn(x)) == double_to_bits(expected), x
