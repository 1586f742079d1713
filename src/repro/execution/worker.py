"""Worker-safe single-run execution: the one way to run a kernel.

:func:`run_kernel` executes one kernel under one FP environment on one
input vector — in the paper every (compiler, optimization level) binary
runs once on its program's input set — and touches nothing global, so it
is safe from any thread or process.  :func:`run_kernel_task` is its
one-argument form, the one
:meth:`~repro.difftest.backend.ExecutionBackend.run_batches` maps over a
program's run-shared groups.  Given equal arguments it returns a bit-identical
:class:`~repro.execution.result.ExecutionResult` — the property the
engine's run-sharing and determinism guarantees rest on (every FP
operation routes through the deterministic
:class:`~repro.fp.env.FPEnvironment`, and libm perturbations are keyed
hashes, not RNG draws).

Two execution modes (``EXEC_MODES``):

* ``tape`` — the compiled tape executor, every caller's default;
* ``check`` — also run the reference tree-walk interpreter and raise
  :class:`~repro.errors.ExecutionDivergence` on any bit of difference
  (status, error message, step count, stdout, printed-value bits).
  Results are compared on raw IEEE bits — never dataclass equality,
  which NaN payloads would defeat.  Outside ``check``, the interpreter
  runs only as the tape's fault rerun.

A tape lives exactly as long as its call: there is no cross-task tape
cache.  The engine already runs each distinct (kernel, environment) of a
program once, so a tape would never be looked up again.
"""

from __future__ import annotations

from repro.errors import ExecutionDivergence
from repro.execution.interp import Interpreter
from repro.execution.limits import DEFAULT_MAX_STEPS
from repro.execution.result import ExecutionResult
from repro.execution.tape import compile_tape
from repro.fp.bits import double_to_bits
from repro.fp.env import FPEnvironment
from repro.ir import nodes as ir

__all__ = [
    "EXEC_MODES",
    "DEFAULT_EXEC_MODE",
    "KernelTask",
    "check_exec_mode",
    "result_key",
    "run_kernel",
    "run_kernel_task",
]

#: Valid execute-stage modes, the default first.
EXEC_MODES = ("tape", "check")

#: Every caller's mode when none is named (``REPRO_EXEC_MODE`` overrides).
DEFAULT_EXEC_MODE = "tape"

#: One execution unit: ``(kernel, env, inputs, max_steps, mode)``.
KernelTask = tuple


def check_exec_mode(mode: str) -> None:
    """Reject an unknown exec mode: the one check every surface shares."""
    if mode not in EXEC_MODES:
        raise ValueError(
            f"exec_mode must be one of {', '.join(EXEC_MODES)}, got {mode!r}"
        )


def result_key(r: ExecutionResult) -> tuple:
    """Strict bitwise identity key for an execution result."""
    return (
        r.status,
        r.error,
        r.steps,
        r.stdout,
        tuple(double_to_bits(v) for v in r.printed),
    )


def run_kernel(
    kernel: ir.Kernel,
    env: FPEnvironment,
    inputs: tuple,
    max_steps: int = DEFAULT_MAX_STEPS,
    mode: str = DEFAULT_EXEC_MODE,
) -> ExecutionResult:
    """Execute ``kernel`` under ``env`` on one input vector.

    ``mode`` picks the executor (see :data:`EXEC_MODES`); a direct call
    runs the tape.  Safe to call concurrently from any thread or
    process: every invocation uses a private tape or interpreter and
    the result depends only on the arguments.
    """
    if mode == "tape":
        return compile_tape(kernel, env).run(inputs, max_steps)
    check_exec_mode(mode)
    tree = Interpreter(kernel, env, max_steps).run(inputs)
    tape = compile_tape(kernel, env).run(inputs, max_steps)
    if result_key(tree) != result_key(tape):
        raise ExecutionDivergence(
            f"tape result diverges from interpreter for kernel "
            f"{kernel.name!r}: tree={result_key(tree)!r} "
            f"tape={result_key(tape)!r}"
        )
    return tree


def run_kernel_task(task: KernelTask) -> ExecutionResult:
    """Unpack one :data:`KernelTask` and run it."""
    return run_kernel(*task)
