"""Compiler and binary abstractions shared by all toolchain models."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import CompileError, ReproError
from repro.execution.interp import Interpreter
from repro.execution.limits import DEFAULT_MAX_STEPS
from repro.execution.result import ExecutionResult
from repro.fp.env import FPEnvironment
from repro.frontend import ast
from repro.frontend.parser import parse_program
from repro.frontend.sema import SemaOptions, check_program
from repro.ir import nodes as ir
from repro.ir.lower import lower_compute
from repro.ir.passes.base import PassPipeline
from repro.toolchains.optlevels import OptLevel, flags_for

__all__ = ["CompilerKind", "Binary", "Compiler"]


class CompilerKind(enum.Enum):
    HOST = "host"
    DEVICE = "device"


def _flags_or(name: str, level: OptLevel, fallback: str) -> str:
    """Table 1 flags for known families; custom compilers keep theirs."""
    try:
        return flags_for(name, level)
    except KeyError:
        return fallback


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
        """Execute on one input vector; a fresh interpreter per run."""
        return Interpreter(self.kernel, self.env, max_steps).run(inputs)


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

    def pipeline(self, level: OptLevel) -> PassPipeline:
        raise NotImplementedError

    def environment(self, level: OptLevel) -> FPEnvironment:
        raise NotImplementedError

    # -- compilation -----------------------------------------------------------

    def compile_source(self, source: str, level: OptLevel) -> Binary:
        """Compile C (host) / CUDA-equivalent (device) source text."""
        try:
            unit = parse_program(source)
        except ReproError as e:
            raise CompileError(f"{self.name}: parse error: {e}") from e
        return self.compile_unit(unit, level)

    def compile_unit(self, unit: ast.TranslationUnit, level: OptLevel) -> Binary:
        try:
            sema = check_program(unit, self.sema_options())
            kernel = lower_compute(sema)
        except ReproError as e:
            raise CompileError(f"{self.name}: {e}") from e
        return self.compile_kernel(kernel, level)

    def compile_kernel(self, kernel: ir.Kernel, level: OptLevel) -> Binary:
        """Back-end only: optimize an already-lowered kernel.

        The differential harness front-ends each program once and reuses
        the kernel across this compiler's levels, like a build farm reusing
        a parse tree — semantics are identical to :meth:`compile_unit`.
        """
        optimized = self.pipeline(level).run(kernel)
        return Binary(
            compiler=self.name,
            level=level,
            kernel=optimized,
            env=self.environment(level),
            flags=flags_for(self.name, level),
        )

    # -- level classes -----------------------------------------------------------

    def cache_token(self, level: OptLevel) -> str:
        """Token identifying this compiler's (pipeline, environment) pair at
        ``level``.

        Levels whose pipeline *and* environment coincide may return one
        token, letting the engine compile a single optimized binary per
        program for the whole equivalence class (gcc's O1/O2/O3 run the
        same passes, nvcc contracts FMA identically at every level but
        ``O0_nofma``, ...).  The default is maximally conservative — one
        token per level — which is always correct.
        """
        return str(level)

    def sema_options(self) -> SemaOptions:
        return SemaOptions()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        v = f" {self.version}" if self.version else ""
        return f"<{type(self).__name__}{v} ({self.kind.value})>"
