"""The floating-point execution environment bound to one compiled binary.

Every (compiler, optimization level) pair in :mod:`repro.toolchains` builds
an :class:`FPEnvironment` describing *how that binary computes*: the linked
math library, whether subnormals are flushed to zero (device fast math),
and whether division and square root are correctly rounded (nvcc
``--prec-div/--prec-sqrt``).  The interpreter routes every arithmetic
operation through this object at the operation's own precision (``ty`` is
``"float"`` or ``"double"``), so mixed-precision programs evaluate with C
semantics and two binaries differ exactly where their environments and
optimized IR differ.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.fp.bits import double_to_bits
from repro.fp.fma import fma as _fma_exact
from repro.fp.formats import FP32, FP64, FloatFormat, Precision
from repro.fp.mathlib import MATH_FUNCTIONS, CorrectlyRoundedLibm, MathLibrary
from repro.fp.ulp import offset_by_ulps

__all__ = ["FPEnvironment"]

_F32_MIN_NORMAL = float(np.finfo(np.float32).tiny)
_F64_MIN_NORMAL = float(np.finfo(np.float64).tiny)

# -- specialized scalar kernels (the tape executor's fast paths) ---------------
#
# The generic ``_binary`` path costs ~2µs per operation: an ``np.errstate``
# context manager plus numpy-scalar boxing per call.  Interpretation is
# pure FP arithmetic, so the tape compiler binds one of the closures below
# per (op, type, environment) *site* instead.  They are bit-identical to
# the numpy path — including NaN sign/payload propagation, which rides the
# same hardware double ops either way — pinned by the differential hammer
# in ``tests/fp/test_env_impl.py``.

_PACK_F32 = struct.Struct("<f").pack
_UNPACK_F32 = struct.Struct("<f").unpack
#: Raw argument bits of a library call, by arity (the call-site key).
_PACK_ARGS = {
    n: struct.Struct("<%dd" % n).pack for n in {f.arity for f in MATH_FUNCTIONS.values()}
}
_INF = math.inf
#: x86's default quiet NaN (sign bit set) — what the hardware, and hence
#: numpy, produces for 0/0.
_NEG_QNAN = struct.unpack("<d", b"\x00\x00\x00\x00\x00\x00\xf8\xff")[0]


def _round_f32(x: float) -> float:
    """Round a double to binary32 and back (round-to-nearest-even).

    Bit-identical to ``float(np.float32(x))``: NaN quietness and sign
    survive the pack/unpack, and overflow rounds to same-signed infinity.
    Double-rounding is exact for +,-,*,/ of binary32 operands evaluated
    in binary64 (Figueroa: 53 >= 2*24 + 2).
    """
    try:
        return _UNPACK_F32(_PACK_F32(x))[0]
    except OverflowError:
        return math.copysign(_INF, x)


def _div_double(a: float, b: float) -> float:
    """IEEE binary64 division with numpy's (hardware) zero-divisor cases."""
    if b == 0.0:
        if a != a:
            # NaN propagates sign and payload, but the hardware quiets a
            # signaling NaN; + 0.0 applies the same quieting.
            return a + 0.0
        if a == 0.0:
            return _NEG_QNAN
        sign = (a > 0.0) == (math.copysign(1.0, b) > 0.0)
        return _INF if sign else -_INF
    return a / b


def _flush32(x: float) -> float:
    """FTZ at binary32: subnormals to same-signed zero (NaN/inf untouched)."""
    if -_F32_MIN_NORMAL < x < _F32_MIN_NORMAL and x != 0.0:
        return math.copysign(0.0, x)
    return x


def _flush64(x: float) -> float:
    if -_F64_MIN_NORMAL < x < _F64_MIN_NORMAL and x != 0.0:
        return math.copysign(0.0, x)
    return x


def _identity(x: float) -> float:
    return x


_PY_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div_double,
}


def _approx_perturb(salt: bytes, op: str, operands: tuple[float, ...], ref: float,
                    max_ulps: int, prob: float) -> float:
    """Deterministic ulp perturbation modelling approximate div/sqrt units."""
    if math.isnan(ref) or math.isinf(ref) or ref == 0.0:
        return ref
    payload = op.encode() + b"".join(double_to_bits(v).to_bytes(8, "little") for v in operands)
    digest = hashlib.blake2b(payload, key=salt[:64], digest_size=16).digest()
    u = int.from_bytes(digest[:8], "little") / 2**64
    if u >= prob:
        return ref
    span = 2 * max_ulps
    k = int.from_bytes(digest[8:], "little") % span
    offset = k - max_ulps
    if offset >= 0:
        offset += 1
    return offset_by_ulps(ref, offset)


@dataclass(frozen=True)
class FPEnvironment:
    """Floating-point semantics of one compiled binary.

    Attributes:
        precision: default kernel precision (used for reporting; operations
            carry their own precision).
        libm: math library linked into the binary.
        ftz: flush subnormal inputs and results to (same-signed) zero.
        approx_div: division is a hardware approximation (<=2 ulp) rather
            than correctly rounded (nvcc ``--prec-div=false``).
        approx_sqrt: sqrt is approximate (nvcc ``--prec-sqrt=false``).
    """

    precision: Precision = Precision.DOUBLE
    libm: MathLibrary = field(default_factory=CorrectlyRoundedLibm)
    ftz: bool = False
    approx_div: bool = False
    approx_sqrt: bool = False
    _salt: bytes = b"device-approx-unit"
    #: Vector math library linked for auto-vectorized call sites (libmvec,
    #: SLEEF, SIMT intrinsics).  ``None`` means vector lanes call the scalar
    #: ``libm`` — the pre-vec-libm-tier behaviour.
    veclibm: MathLibrary | None = None

    @property
    def fmt(self) -> FloatFormat:
        return self.precision.fmt

    # -- subnormal policy --------------------------------------------------------

    def _flush(self, x: float, ty: str) -> float:
        if not self.ftz or x == 0.0 or math.isnan(x) or math.isinf(x):
            return x
        tiny = _F32_MIN_NORMAL if ty == "float" else _F64_MIN_NORMAL
        if abs(x) < tiny:
            return math.copysign(0.0, x)
        return x

    def canon(self, x: float, ty: str = "double") -> float:
        """Round an arbitrary double into type ``ty`` under this environment."""
        if ty == "float" and not (math.isnan(x) or math.isinf(x)):
            # Overflow rounds to same-signed infinity, the IEEE result.
            with np.errstate(over="ignore"):
                x = float(np.float32(x))
        return self._flush(x, ty)

    # -- arithmetic ---------------------------------------------------------------

    def _binary(self, op: str, a: float, b: float, ty: str) -> float:
        a, b = self._flush(a, ty), self._flush(b, ty)
        with np.errstate(all="ignore"):
            if ty == "float":
                fa, fb = np.float32(a), np.float32(b)
            else:
                fa, fb = np.float64(a), np.float64(b)
            if op == "+":
                r = fa + fb
            elif op == "-":
                r = fa - fb
            elif op == "*":
                r = fa * fb
            else:
                r = np.divide(fa, fb)
        return self._flush(float(r), ty)

    def add(self, a: float, b: float, ty: str = "double") -> float:
        return self._binary("+", a, b, ty)

    def sub(self, a: float, b: float, ty: str = "double") -> float:
        return self._binary("-", a, b, ty)

    def mul(self, a: float, b: float, ty: str = "double") -> float:
        return self._binary("*", a, b, ty)

    def div(self, a: float, b: float, ty: str = "double") -> float:
        r = self._binary("/", a, b, ty)
        if self.approx_div:
            r = self._flush(_approx_perturb(self._salt, "div", (a, b), r, 2, 0.5), ty)
        return r

    def neg(self, a: float, ty: str = "double") -> float:
        # Result flushed like _binary: negating a flushed input cannot
        # itself produce a subnormal today, but the symmetry keeps future
        # approx hooks (which may perturb before the final flush) from
        # leaking subnormals through negation alone.
        return self._flush(-self._flush(a, ty), ty)

    def fma(self, a: float, b: float, c: float, ty: str = "double") -> float:
        """Single-rounding fused multiply-add (used by contracted IR)."""
        a, b, c = (self._flush(v, ty) for v in (a, b, c))
        fmt = FP32 if ty == "float" else FP64
        return self._flush(_fma_exact(a, b, c, fmt), ty)

    # -- library calls ----------------------------------------------------------------

    def call(self, fn: str, args: tuple[float, ...], ty: str = "double") -> float:
        return self._lib_call(self.libm, fn, args, ty)

    def veccall(self, fn: str, args: tuple[float, ...], ty: str = "double") -> float:
        """A vectorized lane's library call.

        Resolves through :attr:`veclibm` when one is linked (the vec-libm
        tier); otherwise bit-identical to :meth:`call`, which is how
        pre-tier campaigns replay unchanged.
        """
        return self._lib_call(self.veclibm or self.libm, fn, args, ty)

    def _lib_call(self, lib: MathLibrary, fn: str, args: tuple[float, ...], ty: str) -> float:
        args = tuple(self._flush(a, ty) for a in args)
        fmt = FP32 if ty == "float" else FP64
        if fn == "sqrt" and self.approx_sqrt:
            ref = lib.call("sqrt", args, fmt)
            return self._flush(_approx_perturb(self._salt, "sqrt", args, ref, 2, 0.5), ty)
        return self._flush(lib.call(fn, args, fmt), ty)

    # -- specialized implementations ---------------------------------------------
    #
    # The tape compiler calls these once per operation *site* and binds the
    # returned plain-Python callable into a closure, avoiding the per-call
    # numpy/errstate overhead of the generic methods above.  Each impl is
    # bit-identical to the corresponding method (including NaN sign and
    # payload, signed zeros, subnormal flushing order, and the approximate
    # div/sqrt perturbation, which sees the *original* unflushed operands
    # exactly as ``div``/``call`` do).  A library-call impl also remembers
    # its site's last argument bits and result (see ``_lib_call_impl``);
    # the generic methods, which the interpreter uses, evaluate every call.

    def _flush_impl(self, ty: str):
        if not self.ftz:
            return _identity
        return _flush32 if ty == "float" else _flush64

    def op_impl(self, op: str, ty: str):
        """A ``f(a, b)`` bit-identical to ``add/sub/mul/div(a, b, ty)``.

        The float path rounds both operands to binary32, evaluates the
        hardware double op, and rounds once more — exact by Figueroa's
        double-rounding theorem (binary64 is wide enough that the double
        rounding of +,-,*,/ over binary32 operands never differs from a
        single rounding).
        """
        base = _PY_OPS[op]
        if ty == "float":
            if self.ftz:
                def core(a: float, b: float, _op=base) -> float:
                    return _flush32(
                        _round_f32(_op(_round_f32(_flush32(a)), _round_f32(_flush32(b))))
                    )
            else:
                def core(a: float, b: float, _op=base) -> float:
                    return _round_f32(_op(_round_f32(a), _round_f32(b)))
        elif self.ftz:
            def core(a: float, b: float, _op=base) -> float:
                return _flush64(_op(_flush64(a), _flush64(b)))
        else:
            core = base
        if op == "/" and self.approx_div:
            salt, flush = self._salt, self._flush_impl(ty)

            def approx(a: float, b: float, _core=core) -> float:
                r = _core(a, b)
                return flush(_approx_perturb(salt, "div", (a, b), r, 2, 0.5))

            return approx
        return core

    def neg_impl(self, ty: str):
        """A ``f(a)`` bit-identical to ``neg(a, ty)`` (no f32 rounding)."""
        if not self.ftz:
            return operator.neg
        flush = self._flush_impl(ty)

        def impl(a: float) -> float:
            return flush(-flush(a))

        return impl

    def fma_impl(self, ty: str):
        """A ``f(a, b, c)`` bit-identical to ``fma(a, b, c, ty)``."""
        fmt = FP32 if ty == "float" else FP64
        if not self.ftz:
            def impl(a: float, b: float, c: float) -> float:
                return _fma_exact(a, b, c, fmt)
        else:
            flush = self._flush_impl(ty)

            def impl(a: float, b: float, c: float) -> float:
                return flush(_fma_exact(flush(a), flush(b), flush(c), fmt))

        return impl

    def call_impl(self, fn: str, ty: str):
        """A ``f(args)`` bit-identical to ``call(fn, args, ty)``.

        Each returned impl serves one call site: it reuses its previous
        result when the argument bits repeat.
        """
        return self._lib_call_impl(self.libm, fn, ty)

    def veccall_impl(self, fn: str, ty: str):
        """A ``f(args)`` bit-identical to ``veccall(fn, args, ty)``, reusing
        results per call site like :meth:`call_impl`."""
        return self._lib_call_impl(self.veclibm or self.libm, fn, ty)

    def _lib_call_impl(self, lib: MathLibrary, fn: str, ty: str):
        """A ``f(args)`` keeping one slot: its last raw argument bits and result.

        Loop bodies repeat a site's arguments on every iteration.
        ``MathLibrary.call`` is pure in (function, argument bits, format),
        and the ftz and approx-sqrt branches run inside ``evaluate``, so a
        bit match returns what a fresh call would; ``0.0``/``-0.0``, or
        NaNs of different sign or payload, never match.
        """
        fmt = FP32 if ty == "float" else FP64
        libm_call = lib.call
        flush = self._flush_impl(ty)
        if fn == "sqrt" and self.approx_sqrt:
            salt = self._salt

            def evaluate(args: tuple) -> float:
                args = tuple(flush(a) for a in args)
                ref = libm_call("sqrt", args, fmt)
                return flush(_approx_perturb(salt, "sqrt", args, ref, 2, 0.5))

        elif not self.ftz:
            def evaluate(args: tuple) -> float:
                return libm_call(fn, args, fmt)

        else:
            def evaluate(args: tuple) -> float:
                return flush(libm_call(fn, tuple(flush(a) for a in args), fmt))

        pack = _PACK_ARGS[MATH_FUNCTIONS[fn].arity]
        last_bits = last_result = None

        def impl(args: tuple) -> float:
            nonlocal last_bits, last_result
            bits = pack(*args)
            if bits != last_bits:
                # Store the bits only once the call has returned, so a
                # call that raises leaves the slot as it was.
                last_result = evaluate(args)
                last_bits = bits
            return last_result

        return impl

    def canon_impl(self, ty: str):
        """A ``f(x)`` bit-identical to ``canon(x, ty)``."""
        flush = self._flush_impl(ty)
        if ty != "float":
            return flush

        def impl(x: float) -> float:
            # Same nan/inf guard as ``canon``: a NaN's full payload
            # survives (struct rounding would truncate the low bits).
            if x == x and x != _INF and x != -_INF:
                x = _round_f32(x)
            return flush(x)

        return impl

    def describe(self) -> str:
        bits = [self.precision.value, f"libm={self.libm.name}"]
        if self.veclibm is not None:
            bits.append(f"veclibm={self.veclibm.name}")
        if self.ftz:
            bits.append("ftz")
        if self.approx_div:
            bits.append("approx-div")
        if self.approx_sqrt:
            bits.append("approx-sqrt")
        return ",".join(bits)
