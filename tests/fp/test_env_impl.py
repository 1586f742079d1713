"""The specialized impls must be bit-identical to the generic methods.

``FPEnvironment.op_impl``/``neg_impl``/``fma_impl``/``call_impl``/
``canon_impl`` are the tape executor's fast paths; any bit divergence from
the numpy-backed methods (NaN sign or payload, signed zeros, subnormal
flushing order, approximate-unit perturbation keying) would silently break
tree-vs-tape equivalence.  This file hammers every impl against its method
across every environment axis with directed specials plus a deterministic
random sweep, comparing raw IEEE bits.
"""

import itertools
import math
import random
import struct

import pytest

from repro.fp.bits import double_to_bits
from repro.fp.env import FPEnvironment
from repro.fp.mathlib import MATH_FUNCTIONS, CudaLibm, GccVecLibm, HostLibm

_NAN_PAYLOAD = struct.unpack("<d", b"\x39\x05\x00\x00\x00\x00\xf0\x7f")[0]
_NEG_NAN = struct.unpack("<d", b"\x00\x00\x00\x00\x00\x00\xf8\xff")[0]

#: Directed specials covering every branch of the fast paths: signed
#: zeros/infs, quiet NaNs of both signs, payloads, f32/f64 subnormals and
#: normal-range boundaries, f32 overflow and rounding-tie neighborhoods.
SPECIALS = [
    0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1.5,
    math.inf, -math.inf, math.nan, -math.nan, _NAN_PAYLOAD, _NEG_NAN,
    5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1.1754943508222875e-38, -1.1754943508222875e-38,  # f32 min normal
    1e-39, -1e-39, 1e-45, -1e-45,  # f32 subnormal range (as doubles)
    3.4028234663852886e38, -3.4028234663852886e38,  # f32 max
    3.5e38, -3.5e38, 1.8e308, -1.8e308, 1e308,
    1.0 + 2.0**-25, 1.0 + 2.0**-24,  # f32 rounding ties
    1.0000000000000002, 0.1, -0.1, math.pi, 1e-8, 123456.789,
]


def _rand_doubles(seed: int, n: int) -> list[float]:
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        bits = rng.getrandbits(64)
        out.append(struct.unpack("<d", bits.to_bytes(8, "little"))[0])
    return out


def _bits(x: float) -> int:
    return double_to_bits(x)


def _envs() -> list[FPEnvironment]:
    envs = []
    for ftz, approx_div, approx_sqrt in itertools.product((False, True), repeat=3):
        envs.append(
            FPEnvironment(ftz=ftz, approx_div=approx_div, approx_sqrt=approx_sqrt)
        )
    envs.append(FPEnvironment(libm=HostLibm()))
    envs.append(FPEnvironment(libm=CudaLibm(), ftz=True, approx_div=True))
    return envs


def _pairs() -> list[tuple[float, float]]:
    values = SPECIALS + _rand_doubles(20260808, 120)
    rng = random.Random(7)
    pairs = [(a, b) for a in SPECIALS for b in SPECIALS]
    pairs += [(rng.choice(values), rng.choice(values)) for _ in range(600)]
    return pairs


@pytest.mark.parametrize("env", _envs(), ids=lambda e: e.describe())
@pytest.mark.parametrize("ty", ["double", "float"])
class TestImplBitIdentity:
    def test_binary_ops(self, env, ty):
        methods = {"+": env.add, "-": env.sub, "*": env.mul, "/": env.div}
        for op, method in methods.items():
            impl = env.op_impl(op, ty)
            for a, b in _pairs():
                assert _bits(impl(a, b)) == _bits(method(a, b, ty)), (op, a, b)

    def test_neg(self, env, ty):
        impl = env.neg_impl(ty)
        for v in SPECIALS + _rand_doubles(3, 200):
            assert _bits(impl(v)) == _bits(env.neg(v, ty)), v

    def test_fma(self, env, ty):
        impl = env.fma_impl(ty)
        values = SPECIALS + _rand_doubles(11, 40)
        rng = random.Random(13)
        triples = [(rng.choice(values), rng.choice(values), rng.choice(values))
                   for _ in range(400)]
        triples += [(1.0 + 2.0**-30, 1.0 + 2.0**-30, -1.0), (0.0, math.inf, 1.0)]
        for a, b, c in triples:
            assert _bits(impl(a, b, c)) == _bits(env.fma(a, b, c, ty)), (a, b, c)

    def test_calls(self, env, ty):
        def outcome(fn, *call_args):
            # mathlib's FP32 rounding overflows on finite doubles beyond
            # f32 range; the impl must surface exactly what the method does.
            try:
                return _bits(fn(*call_args))
            except OverflowError:
                return "overflow"

        values = SPECIALS + _rand_doubles(17, 60)
        rng = random.Random(19)
        for name, spec in sorted(MATH_FUNCTIONS.items()):
            impl = env.call_impl(name, ty)
            for _ in range(40):
                args = tuple(rng.choice(values) for _ in range(spec.arity))
                assert outcome(impl, args) == outcome(env.call, name, args, ty), (
                    name, args,
                )

    def test_canon(self, env, ty):
        impl = env.canon_impl(ty)
        for v in SPECIALS + _rand_doubles(23, 400):
            assert _bits(impl(v)) == _bits(env.canon(v, ty)), v


_SUBNORMAL = 5e-324


class TestCallSiteReuse:
    """A call impl reuses its last result only for identical argument bits.

    The sweep above almost never repeats an argument, so it cannot catch
    a stale slot; these sequences repeat and alternate bit patterns that
    compare equal (``0.0 == -0.0``) or never equal themselves (NaNs).
    """

    NANS = [(math.nan,), (-math.nan,), (_NAN_PAYLOAD,), (math.nan,)]
    CASES = [
        ("repeat", FPEnvironment(libm=HostLibm()), "sin", "double",
         [(0.7,), (0.7,), (0.8,), (0.7,)]),
        ("signed_zero", FPEnvironment(libm=HostLibm()), "sin", "double",
         [(0.0,), (-0.0,), (0.0,)]),
        ("nans", FPEnvironment(libm=HostLibm()), "sin", "double", NANS),
        ("nan_sign_two_args", FPEnvironment(libm=CudaLibm()), "copysign", "double",
         [(1.5, math.nan), (1.5, -math.nan), (1.5, _NAN_PAYLOAD), (1.5, math.nan)]),
        ("ftz_subnormal", FPEnvironment(libm=CudaLibm(), ftz=True), "sin", "double",
         [(_SUBNORMAL,), (-_SUBNORMAL,), (0.0,), (_SUBNORMAL,), (-0.0,), (1e-310,)]),
        ("ftz_subnormal_float", FPEnvironment(libm=CudaLibm(), ftz=True), "sin", "float",
         [(1e-39,), (-1e-39,), (1e-39,), (0.5,), (1e-39,)]),
        ("approx_sqrt", FPEnvironment(approx_sqrt=True), "sqrt", "double",
         [(2.0,), (2.0,), (3.0,), (-0.0,), (0.0,), (2.0,), (math.nan,), (-math.nan,)]),
        ("approx_sqrt_ftz", FPEnvironment(ftz=True, approx_sqrt=True), "sqrt", "double",
         [(_SUBNORMAL,), (-_SUBNORMAL,), (5.0,), (5.0,), (_SUBNORMAL,)]),
    ]

    @pytest.mark.parametrize(
        "env, fn, ty, sequence", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_call_impl_sequence(self, env, fn, ty, sequence):
        impl = env.call_impl(fn, ty)
        got = [_bits(impl(args)) for args in sequence]
        assert got == [_bits(env.call(fn, args, ty)) for args in sequence]
        # Consecutive results differ somewhere, so a stale slot would show.
        assert any(a != b for a, b in zip(got, got[1:])) or len(set(sequence)) == 1

    def test_veccall_impl_sequence(self):
        env = FPEnvironment(libm=HostLibm(), veclibm=GccVecLibm())
        impl = env.veccall_impl("exp", "double")
        lanes = [(0.3,), (0.3,), (-0.0,), (0.0,)] + self.NANS + [(0.3,)]
        got = [_bits(impl(args)) for args in lanes]
        assert got == [_bits(env.veccall("exp", args, "double")) for args in lanes]

    def test_raising_call_leaves_the_slot(self):
        # mathlib's binary32 rounding raises on finite doubles beyond f32
        # range; the next call must not see a half-written slot.
        env = FPEnvironment(libm=HostLibm())
        impl = env.call_impl("exp", "float")
        first = impl((0.5,))
        for _ in range(2):
            with pytest.raises(OverflowError):
                impl((1e300,))
        assert _bits(impl((0.5,))) == _bits(first) == _bits(env.call("exp", (0.5,), "float"))


def test_impls_are_plain_callables():
    """Impl lookups happen at compile time; calls must not touch numpy."""
    env = FPEnvironment()
    add = env.op_impl("+", "double")
    assert add(1.5, 2.25) == 3.75
    assert type(add(0.1, 0.2)) is float
    assert type(env.op_impl("/", "float")(1.0, 3.0)) is float
