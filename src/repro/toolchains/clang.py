"""The clang 12.0 host-compiler model.

Differences from the gcc model that drive gcc-vs-clang inconsistencies:

* clang's front end folds constant-argument libm calls at *every* level
  (including ``-O0``), while gcc folds only under optimization — a source
  of host-host divergence even at O0/O0_nofma;
* from ``-O1`` clang's constant propagation is modeled as more aggressive:
  const-initialized locals reach call arguments (``propagate=True``),
  folding sites gcc's literal-only folding misses — which is why the clang
  column of the paper's Table 5 is the most level-sensitive host column;
* like gcc, no FMA contraction for a baseline x86-64 target (clang 12
  defaults to ``-ffp-contract=off`` for C anyway);
* from ``-O2`` the loop vectorizer engages at the same widths as gcc
  (4 lanes at O2, 8 at O3) but reduces horizontally by sequential lane
  extraction (``ladder``) rather than gcc's pairwise tree — the vector
  analogue of clang's linear-chain canonicalization — so the two hosts
  bitwise-diverge on vectorized reductions even at matching widths;
* from ``-O3`` (and under fast math) the vectorizer if-converts
  conditional loop bodies into masked select form before widening, like
  gcc — the two hosts then diverge on *masked* reductions through their
  different horizontal styles;
* ``-ffast-math`` reassociates by operand rank (canonicalization) rather
  than gcc's balanced reduction, expands fewer pow special cases, and keeps
  ``pow(x, 0.5)`` as a call.
"""

from __future__ import annotations

from repro.fp.env import FPEnvironment
from repro.fp.mathlib import ClangVecLibm, FastHostLibm, HostLibm
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

__all__ = ["ClangCompiler"]


class ClangCompiler(Compiler):
    name = "clang"
    kind = CompilerKind.HOST
    version = "12.0"

    #: horizontal-reduction shape of the modeled clang vectorizer
    REDUCE_STYLE = "ladder"

    def pipeline(self, level: OptLevel) -> PassPipeline:
        if level in (OptLevel.O0_NOFMA, OptLevel.O0):
            return PassPipeline([ConstantFold(fold_calls=True, propagate=False)])
        if level in (OptLevel.O1, OptLevel.O2, OptLevel.O3):
            return PassPipeline(
                [
                    ConstantFold(fold_calls=True, propagate=True),
                    *self._vector_passes(level),
                ]
            )
        return PassPipeline(
            [
                ConstantFold(fold_calls=True, propagate=True),
                FunctionSubstitution(max_pow_expand=2, pow_half_to_sqrt=False),
                ReciprocalDivision(),
                Reassociate(style="ranked"),
                FiniteMathSimplify(),
                *self._vector_passes(level),
            ]
        )

    def environment(self, level: OptLevel) -> FPEnvironment:
        veclibm = ClangVecLibm() if self._policy(level).vec_libm else None
        if level is OptLevel.O3_FASTMATH:
            return FPEnvironment(libm=FastHostLibm(), veclibm=veclibm)
        return FPEnvironment(libm=HostLibm(), veclibm=veclibm)
