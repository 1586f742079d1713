"""The reducer's test oracle: does a candidate still show the divergence?

A :class:`PairOracle` pins one (compiler pair, optimization level) cell
and evaluates candidate *source text* through the same path the campaign
engine uses — :func:`~repro.difftest.engine.frontend_kernels` per target
kind, the compiler's pass pipeline, the compiled tape — so a
reduction verdict agrees bit-for-bit with what a campaign would observe.
Any front-end, compile, or runtime failure simply makes the candidate
uninteresting; delta debugging proposes many invalid programs and the
frontend re-validation here is what rejects them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.difftest.engine import _differing_values, frontend_kernels
from repro.difftest.record import ComparisonRecord
from repro.errors import CompileError
from repro.execution.limits import DEFAULT_MAX_STEPS
from repro.tiers import structural_tag
from repro.toolchains.base import Compiler
from repro.toolchains.optlevels import OptLevel
from repro.triage.signature import InconsistencySignature, signature_of

__all__ = ["PairObservation", "PairOracle", "compilers_by_name"]


def compilers_by_name(compilers: list[Compiler]) -> dict[str, Compiler]:
    """Name -> compiler map (names are unique by engine validation)."""
    return {c.name: c for c in compilers}


@dataclass(frozen=True)
class PairObservation:
    """What one candidate did in the oracle's matrix cell."""

    ok: bool  # both sides front-ended, compiled and ran
    consistent: bool = True
    kind: str | None = None  # divergence kind label when inconsistent
    signature_a: str | None = None
    signature_b: str | None = None
    steps: int = 0  # max interpreter steps either side spent

    @property
    def inconsistent(self) -> bool:
        return self.ok and not self.consistent


class PairOracle:
    """Compile + run candidates in one (compiler pair, level) cell."""

    def __init__(
        self,
        compiler_a: Compiler,
        compiler_b: Compiler,
        level: OptLevel,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> None:
        self.compiler_a = compiler_a
        self.compiler_b = compiler_b
        self.level = level
        self.max_steps = max_steps
        #: predicate evaluations performed (reduction cost accounting)
        self.evaluations = 0

    def _compile_pair(self, source: str) -> list | None:
        """Front-end + compile ``source`` on both sides; None on failure."""
        frontend = frontend_kernels(source)
        binaries = []
        for compiler in (self.compiler_a, self.compiler_b):
            kernel = frontend.kernels.get(compiler.kind)
            if kernel is None:
                return None
            try:
                binaries.append(compiler.compile_kernel(kernel, self.level))
            except CompileError:
                return None
        return binaries

    def _verdict(self, binaries: list, ra, rb) -> PairObservation:
        """Classify one candidate from its two execution results."""
        if not (ra.ok and rb.ok):
            return PairObservation(ok=False)
        steps = max(ra.steps, rb.steps)
        sig_a, sig_b = ra.signature(), rb.signature()
        if sig_a == sig_b:
            return PairObservation(
                ok=True, consistent=True, signature_a=sig_a, signature_b=sig_b,
                steps=steps,
            )
        # The record the engine's compare stage would write for this cell,
        # named by the same signature rule, so a reduction verdict agrees
        # with what the campaign recorded.
        va, vb = _differing_values(ra, rb)
        ba, bb = binaries
        record = ComparisonRecord(
            0, ba.compiler, bb.compiler, self.level, False, value_a=va, value_b=vb,
            tag=structural_tag(ba.kernel, ba.env, bb.kernel, bb.env),
        )
        kind = signature_of(record).kind
        return PairObservation(
            ok=True, consistent=False, kind=kind, signature_a=sig_a,
            signature_b=sig_b, steps=steps,
        )

    def observe(self, source: str, inputs: tuple) -> PairObservation:
        """Front-end, compile and run ``source`` on both sides of the cell."""
        self.evaluations += 1
        binaries = self._compile_pair(source)
        if binaries is None:
            return PairObservation(ok=False)
        ra = binaries[0].run(inputs, self.max_steps)
        if not ra.ok:  # side b cannot change the verdict
            return PairObservation(ok=False)
        return self._verdict(binaries, ra, binaries[1].run(inputs, self.max_steps))

    def matches(self, source: str, inputs: tuple, target: InconsistencySignature) -> bool:
        """The interesting-predicate: the candidate still exhibits the same
        inconsistency kind in this oracle's cell."""
        obs = self.observe(source, inputs)
        return obs.inconsistent and obs.kind == target.kind
