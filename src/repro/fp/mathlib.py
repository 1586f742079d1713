"""Math-library models for the simulated toolchains.

The paper's host compilers link the GNU C Library's libm while nvcc links
the CUDA Math Library (§3.1.1); host-device result mismatches on
transcendental functions are a primary inconsistency source (RQ3).  We model
each library as *correctly rounded result + deterministic faithful-rounding
perturbation*: a keyed hash of (library salt, function, argument bits)
decides whether and how far (in ulps) the returned value sits from the
correctly rounded one, within the library's documented accuracy budget.

Two properties matter for the reproduction:

* determinism — the same (library, function, argument) always returns the
  same value, like a real libm; and
* decorrelation — different libraries disagree on a stable, input-dependent
  subset of calls, like real glibc vs. CUDA libm.

IEEE-exact operations (sqrt, fabs, floor, ...) are never perturbed, matching
the standard's correct-rounding requirements for them.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

from repro.fp.bits import double_to_bits
from repro.fp.formats import FP64, FloatFormat
from repro.fp.ulp import offset_by_ulps

__all__ = [
    "MATH_FUNCTIONS",
    "MathFunction",
    "MathLibrary",
    "CorrectlyRoundedLibm",
    "PerturbedLibm",
    "HostLibm",
    "CudaLibm",
    "FastHostLibm",
    "FastCudaLibm",
    "GccVecLibm",
    "ClangVecLibm",
    "NvccVecLibm",
]


@dataclass(frozen=True, slots=True)
class MathFunction:
    """Description of one C math-library entry point."""

    name: str
    arity: int
    exact: bool  # IEEE requires correct rounding -> never perturbed


def _registry() -> dict[str, MathFunction]:
    exact = ["sqrt", "fabs", "floor", "ceil", "trunc", "fmod", "fmin", "fmax", "copysign"]
    trans1 = [
        "sin", "cos", "tan", "asin", "acos", "atan",
        "sinh", "cosh", "tanh", "exp", "expm1", "exp2",
        "log", "log2", "log10", "log1p", "cbrt", "erf",
    ]
    trans2 = ["pow", "atan2", "hypot", "fdim"]
    table: dict[str, MathFunction] = {}
    for n in exact:
        table[n] = MathFunction(n, 2 if n in ("fmod", "fmin", "fmax", "copysign") else 1, True)
    for n in trans1:
        table[n] = MathFunction(n, 1, False)
    for n in trans2:
        table[n] = MathFunction(n, 2, False)
    return table


#: Every math function the generators and the frontend accept.
MATH_FUNCTIONS: dict[str, MathFunction] = _registry()


@functools.cache
def _c_function(name: str):
    """The platform C library's one-argument double function ``name``.

    :mod:`math` gained ``cbrt`` and ``exp2`` only in Python 3.11, where
    they wrap these same C functions; calling them through :mod:`ctypes`
    keeps the model's truth independent of the interpreter version.
    """
    import ctypes
    import ctypes.util

    fn = getattr(ctypes.CDLL(ctypes.util.find_library("m")), name)
    fn.argtypes = (ctypes.c_double,)
    fn.restype = ctypes.c_double
    return fn


def _c_semantics(name: str, args: tuple[float, ...]) -> float:
    """Evaluate ``name(args)`` with C99 libm edge-case behaviour.

    Python's :mod:`math` raises where C returns NaN/inf; this shim converts.
    The underlying platform libm is our model's "correctly rounded" truth.
    """
    if name == "fdim":
        x, y = args
        if math.isnan(x) or math.isnan(y):
            return math.nan
        return x - y if x > y else 0.0
    if name == "fmin":
        x, y = args
        if math.isnan(x):
            return y
        if math.isnan(y):
            return x
        return min(x, y)
    if name == "fmax":
        x, y = args
        if math.isnan(x):
            return y
        if math.isnan(y):
            return x
        return max(x, y)
    if name == "fmod":
        x, y = args
        if math.isnan(x) or math.isnan(y) or math.isinf(x) or y == 0.0:
            return math.nan
        if math.isinf(y):
            return x
        try:
            return math.fmod(x, y)
        except ValueError:
            return math.nan
    if name == "pow":
        x, y = args
        try:
            r = math.pow(x, y)
        except OverflowError:
            return math.copysign(math.inf, 1.0)
        except ValueError:
            return math.nan
        return r
    fn = getattr(math, name, None) or _c_function(name)
    try:
        return fn(*args)
    except ValueError:  # domain error: C returns NaN (errno aside)
        return math.nan
    except OverflowError:  # range error: C returns +/-inf
        # All registered functions that overflow do so toward +inf except
        # sinh/expm1 with large negative args (which underflow instead).
        if name in ("sinh", "tan") and args[0] < 0:
            return -math.inf
        return math.inf


def _to_format(x: float, fmt: FloatFormat) -> float:
    """Round a double to ``fmt`` (identity for FP64)."""
    if fmt is FP64 or math.isnan(x) or math.isinf(x):
        return x
    import struct

    return struct.unpack("<f", struct.pack("<f", x))[0]


def _is_trivial(x: float) -> bool:
    """Values real libms get exact: integers of small magnitude, 0, +/-1."""
    return x == x and abs(x) <= 2**20 and x == math.floor(x)


class MathLibrary:
    """Interface: evaluate a libm function under a library model."""

    #: short identifier used in reports ("glibc", "cuda", ...)
    name: str = "abstract"

    def call(self, fn: str, args: tuple[float, ...], fmt: FloatFormat = FP64) -> float:
        """``fn(args)`` rounded to ``fmt``.

        Must be a pure function of (``fn``, the IEEE bits of ``args``,
        ``fmt``), like a real libm: the tape reuses a call site's result
        whenever its argument bits repeat
        (:meth:`repro.fp.env.FPEnvironment.call_impl`).
        """
        raise NotImplementedError

    def _reference(self, fn: str, args: tuple[float, ...], fmt: FloatFormat) -> float:
        spec = MATH_FUNCTIONS.get(fn)
        if spec is None:
            raise KeyError(f"unknown math function {fn!r}")
        if len(args) != spec.arity:
            raise TypeError(f"{fn} expects {spec.arity} args, got {len(args)}")
        if fmt is not FP64:
            args = tuple(_to_format(a, fmt) for a in args)
        return _to_format(_c_semantics(fn, args), fmt)


class CorrectlyRoundedLibm(MathLibrary):
    """The model's ground truth; used by compile-time constant folding.

    Real compilers fold constant libm calls with MPFR-grade evaluation,
    which is how a folded call can disagree with the runtime library —
    one of the host-side inconsistency mechanisms the host compiler
    models enable (see :mod:`repro.toolchains.gcc`).
    """

    name = "cr"

    def call(self, fn: str, args: tuple[float, ...], fmt: FloatFormat = FP64) -> float:
        return self._reference(fn, args, fmt)


class PerturbedLibm(MathLibrary):
    """A faithful-but-not-correctly-rounded library model.

    ``max_ulps`` bounds the deviation, ``perturb_prob`` is the fraction of
    (function, argument) points that deviate at all.  Both are enforced by
    a keyed blake2b hash so every call is reproducible.

    Beyond ``huge_trig_threshold``, trigonometric argument reduction is
    modelled as library-specific: each library returns its own
    deterministic value in [-1, 1] (different reductions agree on no
    digits at such magnitudes), and with probability ``huge_trig_nan_prob``
    the reduction fails outright and returns NaN.  This is the mechanism
    behind the large digit differences and the {Real, NaN}-type kinds the
    paper's Varity observes at *every* optimization level (Tables 3-4):
    its wide-range inputs routinely reach ``sin(1e120)``-like calls, where
    glibc's Payne-Hanek reduction and the CUDA Math Library genuinely
    diverge.
    """

    #: trig argument reduction decorrelates past this magnitude
    huge_trig_threshold: float = 1e8

    def __init__(
        self,
        name: str,
        salt: str,
        max_ulps: int,
        perturb_prob: float,
        huge_trig_nan_prob: float = 0.0,
    ) -> None:
        if max_ulps < 1:
            raise ValueError("max_ulps must be >= 1")
        if not 0.0 <= perturb_prob <= 1.0:
            raise ValueError("perturb_prob must be in [0, 1]")
        if not 0.0 <= huge_trig_nan_prob <= 1.0:
            raise ValueError("huge_trig_nan_prob must be in [0, 1]")
        self.name = name
        self._salt = salt.encode("utf-8")
        self.max_ulps = max_ulps
        self.perturb_prob = perturb_prob
        self.huge_trig_nan_prob = huge_trig_nan_prob

    def _draw(self, fn: str, args: tuple[float, ...]) -> tuple[float, int]:
        payload = fn.encode("utf-8") + b"".join(
            double_to_bits(a).to_bytes(8, "little") for a in args
        )
        digest = hashlib.blake2b(payload, key=self._salt[:64], digest_size=16).digest()
        u = int.from_bytes(digest[:8], "little") / 2**64
        span = 2 * self.max_ulps  # offsets in [-max_ulps, max_ulps] \ {0}
        k = int.from_bytes(digest[8:], "little") % span
        offset = k - self.max_ulps
        if offset >= 0:
            offset += 1
        return u, offset

    def _huge_trig(self, fn: str, args: tuple[float, ...]) -> float:
        """Library-specific result of trig argument reduction at huge |x|."""
        payload = b"reduce:" + fn.encode("utf-8") + double_to_bits(args[0]).to_bytes(
            8, "little"
        )
        digest = hashlib.blake2b(payload, key=self._salt[:64], digest_size=16).digest()
        u = int.from_bytes(digest[:8], "little") / 2**64
        if u < self.huge_trig_nan_prob:
            return math.nan
        v = int.from_bytes(digest[8:], "little") / 2**64
        value = 2.0 * v - 1.0  # deterministic point in [-1, 1]
        if fn == "tan":
            return value / max(1e-6, 1.0 - abs(value))  # tan's unbounded range
        return value

    def call(self, fn: str, args: tuple[float, ...], fmt: FloatFormat = FP64) -> float:
        if (
            fn in ("sin", "cos", "tan")
            and math.isfinite(args[0])
            and abs(args[0]) > self.huge_trig_threshold
        ):
            return _to_format(self._huge_trig(fn, args), fmt)
        ref = self._reference(fn, args, fmt)
        if MATH_FUNCTIONS[fn].exact:
            return ref
        if math.isnan(ref) or math.isinf(ref) or ref == 0.0:
            return ref
        if _is_trivial(ref) or all(_is_trivial(a) for a in args):
            # Real libms hit these points exactly (sin(0), exp(0), pow of
            # small integers, ...); perturbing them would be noise the
            # paper's programs never see.
            return ref
        u, offset = self._draw(fn, args)
        if u >= self.perturb_prob:
            return ref
        if fmt is FP64:
            return offset_by_ulps(ref, offset)
        # Walk the binary32 lattice instead, then widen.
        import struct

        bits = struct.unpack("<I", struct.pack("<f", ref))[0]
        sign = bits >> 31
        mag = bits & 0x7FFFFFFF
        key = -mag if sign else mag
        key += offset
        inf32 = 0x7F800000
        if key >= 0:
            bits = min(key, inf32)
        else:
            bits = 0x80000000 | min(-key, inf32)
        return struct.unpack("<f", struct.pack("<I", bits))[0]


def HostLibm() -> PerturbedLibm:
    """glibc model: faithful rounding, <=1 ulp, most points exact.

    glibc's Payne-Hanek reduction keeps huge-argument trig finite.
    """
    return PerturbedLibm(
        "glibc", salt="glibc-2.31", max_ulps=1, perturb_prob=0.35,
        huge_trig_nan_prob=0.02,
    )


def CudaLibm() -> PerturbedLibm:
    """CUDA Math Library model: documented bounds of a few ulps.

    Large-magnitude trig arguments are outside the documented accuracy
    range; the reduction occasionally degenerates entirely.
    """
    return PerturbedLibm(
        "cuda", salt="cuda-12.3", max_ulps=2, perturb_prob=0.55,
        huge_trig_nan_prob=0.12,
    )


def FastHostLibm() -> PerturbedLibm:
    """Host libm under ``-ffast-math`` (finite-math entry points, relaxed)."""
    return PerturbedLibm(
        "glibc-fast", salt="glibc-finite", max_ulps=4, perturb_prob=0.70,
        huge_trig_nan_prob=0.05,
    )


def FastCudaLibm() -> PerturbedLibm:
    """Device intrinsics under ``--use_fast_math`` (hardware approximations)."""
    return PerturbedLibm(
        "cuda-fast", salt="cuda-intrinsic", max_ulps=8, perturb_prob=0.80,
        huge_trig_nan_prob=0.20,
    )


# -- vector math libraries (the vec-libm divergence tier) ----------------------
#
# Auto-vectorized libm calls do not go through the scalar entry points: gcc
# emits libmvec's ``_ZGV*`` symbols, clang (with ``-fveclib``) targets
# SLEEF-style kernels, and nvcc's fast-math path lowers to SIMT intrinsics.
# Each is a *different implementation* from the scalar library it shadows,
# with its own accuracy budget, so a vectorized loop body can disagree with
# the same source evaluated scalar — per call site, per lane.  The models
# below plug into :class:`repro.fp.env.FPEnvironment.veclibm`; ``VecCall``
# lanes resolve through them while scalar ``FCall`` keeps the scalar libm.


def GccVecLibm() -> PerturbedLibm:
    """glibc's libmvec (``_ZGVbN*`` kernels): ~4 ulp vector transcendentals."""
    return PerturbedLibm(
        "libmvec", salt="glibc-libmvec", max_ulps=4, perturb_prob=0.65,
        huge_trig_nan_prob=0.08,
    )


def ClangVecLibm() -> PerturbedLibm:
    """A SLEEF-style vector library (clang ``-fveclib=SLEEF``): ~3.5 ulp."""
    return PerturbedLibm(
        "sleef", salt="sleef-3.6", max_ulps=3, perturb_prob=0.60,
        huge_trig_nan_prob=0.05,
    )


def NvccVecLibm() -> PerturbedLibm:
    """SIMT fast-math intrinsics across a warp (``__sinf``-class accuracy)."""
    return PerturbedLibm(
        "simt-intrinsic", salt="cuda-simt", max_ulps=16, perturb_prob=0.85,
        huge_trig_nan_prob=0.25,
    )
