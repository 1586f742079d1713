"""Worker-safe single-run execution entry point.

:func:`run_kernel` builds a fresh :class:`~repro.execution.interp.Interpreter`
per call and touches nothing global, so it is safe from any thread or
process (triage bisection runs every pipeline prefix through it; the
campaign engine's batched path is :mod:`repro.execution.batch`).  Given
equal arguments it returns a bit-identical
:class:`~repro.execution.result.ExecutionResult` — the property the
engine's run-sharing and determinism guarantees rest on (every FP
operation routes through the deterministic
:class:`~repro.fp.env.FPEnvironment`, and libm perturbations are keyed
hashes, not RNG draws).
"""

from __future__ import annotations

from repro.execution.interp import Interpreter
from repro.execution.limits import DEFAULT_MAX_STEPS
from repro.execution.result import ExecutionResult
from repro.fp.env import FPEnvironment
from repro.ir import nodes as ir

__all__ = ["run_kernel"]


def run_kernel(
    kernel: ir.Kernel,
    env: FPEnvironment,
    inputs: tuple,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExecutionResult:
    """Execute ``kernel`` under ``env`` on one input vector.

    Safe to call concurrently from any thread or process: every invocation
    uses a private interpreter and the result depends only on the
    arguments.
    """
    return Interpreter(kernel, env, max_steps).run(inputs)
