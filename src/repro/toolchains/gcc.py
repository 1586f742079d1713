"""The gcc 9.4 host-compiler model.

Mechanisms:

* links the glibc math library at O0..O3 (:func:`~repro.fp.mathlib.HostLibm`)
  and its finite/fast entry points under ``-ffast-math``;
* no FMA contraction at any level — a baseline x86-64 target has no FMA
  instruction, which is why the paper's Table 5 reports no gcc O0 vs
  O0_nofma difference;
* from ``-O1`` folds constant-argument libm calls with a correctly rounded
  compile-time evaluator (MPFR in real gcc), which may differ from the
  runtime glibc result by an ulp;
* from ``-O2`` the loop vectorizer engages (4 lanes at O2, 8 at O3):
  widening of innermost reduction/map loops, then unrolling of the loops
  that stayed scalar, with ``adjacent`` (haddpd-style pairwise)
  horizontal reductions — the vector-tier counterpart of gcc's
  balanced-tree reassociation;
* from ``-O3`` (and under fast math) the vectorizer also **if-converts**
  conditional loop bodies into masked select form before widening —
  every lane evaluates both arms and blends by mask — while at ``-O2``
  the cost model keeps conditional bodies as scalar branches;
* ``-ffast-math`` adds reciprocal math, pow expansion (including
  ``pow(x, 0.5) -> sqrt``), balanced-tree reassociation, and
  finite-math-only simplifications, then vectorizes at the full 8 lanes.
"""

from __future__ import annotations

from repro.fp.env import FPEnvironment
from repro.fp.mathlib import FastHostLibm, GccVecLibm, HostLibm
from repro.ir.passes import (
    ConstantFold,
    FiniteMathSimplify,
    FunctionSubstitution,
    PassPipeline,
    Reassociate,
    ReciprocalDivision,
)
from repro.toolchains.base import Compiler, CompilerKind
from repro.toolchains.optlevels import OptLevel

__all__ = ["GccCompiler"]


class GccCompiler(Compiler):
    name = "gcc"
    kind = CompilerKind.HOST
    version = "9.4"

    #: horizontal-reduction shape of the modeled gcc vectorizer
    REDUCE_STYLE = "adjacent"

    def pipeline(self, level: OptLevel) -> PassPipeline:
        if level in (OptLevel.O0_NOFMA, OptLevel.O0):
            return PassPipeline()
        if level in (OptLevel.O1, OptLevel.O2, OptLevel.O3):
            return PassPipeline(
                [
                    ConstantFold(fold_calls=True, propagate=False),
                    *self._vector_passes(level),
                ]
            )
        return PassPipeline(
            [
                ConstantFold(fold_calls=True, propagate=False),
                FunctionSubstitution(max_pow_expand=4, pow_half_to_sqrt=True),
                ReciprocalDivision(),
                Reassociate(style="balanced"),
                FiniteMathSimplify(),
                *self._vector_passes(level),
            ]
        )

    def environment(self, level: OptLevel) -> FPEnvironment:
        veclibm = GccVecLibm() if self._policy(level).vec_libm else None
        if level is OptLevel.O3_FASTMATH:
            return FPEnvironment(libm=FastHostLibm(), veclibm=veclibm)
        return FPEnvironment(libm=HostLibm(), veclibm=veclibm)
