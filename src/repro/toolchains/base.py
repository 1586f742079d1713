"""Compiler and binary abstractions shared by all toolchain models."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import CompileError, ReproError
from repro.execution.limits import DEFAULT_MAX_STEPS
from repro.execution.result import ExecutionResult
from repro.execution.worker import run_kernel
from repro.fp.env import FPEnvironment
from repro.frontend.parser import parse_program
from repro.frontend.sema import check_program
from repro.ir import nodes as ir
from repro.ir.lower import lower_compute
from repro.ir.passes import IfConvert, LoopUnroll, PassPipeline, Vectorize
from repro.toolchains.cache import env_fingerprint
from repro.toolchains.optlevels import OptLevel, TierPolicy, flags_for, tier_policy

__all__ = ["CompilerKind", "Binary", "Compiler"]


class CompilerKind(enum.Enum):
    HOST = "host"
    DEVICE = "device"


@dataclass(frozen=True)
class Binary:
    """The output of one compilation: optimized IR bound to an environment."""

    compiler: str
    level: OptLevel
    kernel: ir.Kernel
    env: FPEnvironment
    flags: str = ""

    @property
    def label(self) -> str:
        return f"{self.compiler}/{self.level}"

    def run(self, inputs: tuple, max_steps: int = DEFAULT_MAX_STEPS) -> ExecutionResult:
        """Execute on one input vector on the compiled tape."""
        return run_kernel(self.kernel, self.env, inputs, max_steps)


class Compiler:
    """A simulated compiler: per-level pass pipelines + FP environments.

    Subclasses define :meth:`pipeline` and :meth:`environment`; compilation
    itself (parse -> sema -> lower -> optimize) is shared.  ``compile``
    raises :class:`CompileError` on any front-end rejection, which the
    differential harness records as a failed compilation.
    """

    #: family name used in reports and Table 1 flag lookup
    name: str = "abstract"
    kind: CompilerKind = CompilerKind.HOST
    version: str = ""

    def __init__(self, tiers: str = "baseline") -> None:
        #: divergence-tier profile (see ``optlevels.tier_policy``)
        self.tiers = tiers

    def _policy(self, level: OptLevel) -> TierPolicy:
        """This compiler's tier-policy table entry at ``level``."""
        return tier_policy(self.name, level, self.tiers)

    def pipeline(self, level: OptLevel) -> PassPipeline:
        raise NotImplementedError

    def environment(self, level: OptLevel) -> FPEnvironment:
        raise NotImplementedError

    def _vector_passes(self, level: OptLevel) -> list:
        """A host vectorizer's passes at ``level``, reducing horizontally
        in the subclass's ``REDUCE_STYLE``."""
        pol = self._policy(level)
        if not pol.vector_width:
            return []
        passes: list = [IfConvert()] if pol.if_convert else []
        passes += [
            Vectorize(
                pol.vector_width,
                style=self.REDUCE_STYLE,
                masked=pol.if_convert,
                int_guards=pol.int_guards,
                mixed=pol.mixed_precision,
            ),
            LoopUnroll(pol.vector_width),
        ]
        return passes

    # -- compilation -----------------------------------------------------------

    def compile_source(self, source: str, level: OptLevel) -> Binary:
        """Compile C (host) / CUDA-equivalent (device) source text."""
        try:
            unit = parse_program(source)
        except ReproError as e:
            raise CompileError(f"{self.name}: parse error: {e}") from e
        try:
            kernel = lower_compute(check_program(unit))
        except ReproError as e:
            raise CompileError(f"{self.name}: {e}") from e
        return self.compile_kernel(kernel, level)

    def compile_kernel(
        self, kernel: ir.Kernel, level: OptLevel, memo: dict | None = None
    ) -> Binary:
        """Back-end only: optimize an already-lowered kernel.

        The differential harness front-ends each program once and reuses
        the kernel across this compiler's levels, like a build farm reusing
        a parse tree — semantics are identical to :meth:`compile_source`.
        A per-program ``memo`` (see :meth:`PassPipeline.run`) runs each
        distinct pass once on each distinct input kernel, across levels
        and compilers.
        """
        optimized = self.pipeline(level).run(kernel, memo)
        return Binary(
            compiler=self.name,
            level=level,
            kernel=optimized,
            env=self.environment(level),
            flags=flags_for(self.name, level),
        )

    # -- level classes -----------------------------------------------------------

    def cache_token(self, level: OptLevel) -> str:
        """Token naming this compiler's (pipeline, environment) pair at
        ``level``: every pass's :meth:`~repro.ir.passes.base.Pass.key` in
        order, plus the environment's
        :func:`~repro.toolchains.cache.env_fingerprint`.

        Levels with equal tokens optimize every kernel alike and run it in
        the same environment (gcc's O0 and O0_nofma run no passes; nvcc
        contracts FMA identically at every level but ``O0_nofma``).
        Triage memoizes bisections by it and the corpus model fingerprint
        hashes it, so a changed pass parameter or pass order changes both.
        """
        keys = [p.key() for p in self.pipeline(level).passes]
        return repr((keys, env_fingerprint(self.environment(level))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        v = f" {self.version}" if self.version else ""
        return f"<{type(self).__name__}{v} ({self.kind.value})>"
