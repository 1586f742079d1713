"""Batched kernel execution: one compiled tape, many input sets.

The campaign engine's execute stage repeats the same kernel across every
input set of a run-shared group.  A :class:`KernelRunner` hoists the
per-kernel setup out of that loop — one :class:`~repro.execution.tape.Tape`
compile (or one reusable tree-walk interpreter) serves the whole batch —
and :func:`run_batch_task` is the picklable pool entry point that ships
*one* task per (kernel, input batch) instead of one per (kernel, input)
pair.

Three execution modes (``EXEC_MODES``):

* ``tree`` — the reference tree-walk interpreter, instantiated once per
  kernel and reset between inputs;
* ``tape`` — the compiled tape executor (default; bit-identical);
* ``check`` — run both and raise
  :class:`~repro.errors.ExecutionDivergence` on any bit of difference
  (status, error message, step count, stdout, printed-value bits).
  Results are compared on raw IEEE bits — never dataclass equality,
  which NaN payloads would defeat.

A tape lives exactly as long as its runner: there is no cross-task tape
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
    "KernelRunner",
    "BatchTask",
    "run_batch",
    "run_batch_task",
    "result_key",
]

#: Valid execute-stage modes, in reference-first order.
EXEC_MODES = ("tree", "tape", "check")

DEFAULT_EXEC_MODE = "tape"

#: A picklable batched execution unit: ``(kernel, env, inputs_batch,
#: max_steps, exec_mode)``.  ``inputs_batch`` is a tuple of input vectors.
BatchTask = tuple


def result_key(r: ExecutionResult) -> tuple:
    """Strict bitwise identity key for an execution result."""
    return (
        r.status,
        r.error,
        r.steps,
        r.stdout,
        tuple(double_to_bits(v) for v in r.printed),
    )


class KernelRunner:
    """One kernel's per-run state, hoisted across an input batch.

    In ``tree`` mode a single :class:`Interpreter` is reused (reset
    between inputs) instead of re-instantiated per input; in ``tape``
    mode one tape is compiled for the whole batch; ``check`` runs both
    and verifies bit identity.
    """

    __slots__ = ("kernel", "env", "mode", "_interp", "_tape")

    def __init__(
        self,
        kernel: ir.Kernel,
        env: FPEnvironment,
        mode: str = DEFAULT_EXEC_MODE,
    ) -> None:
        if mode not in EXEC_MODES:
            raise ValueError(
                f"exec mode must be one of {', '.join(EXEC_MODES)}, got {mode!r}"
            )
        self.kernel = kernel
        self.env = env
        self.mode = mode
        self._interp = None if mode == "tape" else Interpreter(kernel, env)
        self._tape = None if mode == "tree" else compile_tape(kernel, env)

    def run(self, inputs: tuple, max_steps: int = DEFAULT_MAX_STEPS) -> ExecutionResult:
        if self.mode == "tape":
            return self._tape.run(inputs, max_steps)
        interp = self._interp
        interp.reset()
        interp.max_steps = max_steps
        tree = interp.run(inputs)
        if self.mode == "tree":
            return tree
        tape = self._tape.run(inputs, max_steps)
        if result_key(tree) != result_key(tape):
            raise ExecutionDivergence(
                f"tape result diverges from interpreter for kernel "
                f"{self.kernel.name!r}: tree={result_key(tree)!r} "
                f"tape={result_key(tape)!r}"
            )
        return tree


def run_batch(
    kernel: ir.Kernel,
    env: FPEnvironment,
    inputs_batch: tuple,
    max_steps: int = DEFAULT_MAX_STEPS,
    mode: str = DEFAULT_EXEC_MODE,
) -> tuple[ExecutionResult, ...]:
    """Execute ``kernel`` on every input vector of ``inputs_batch``."""
    runner = KernelRunner(kernel, env, mode)
    return tuple(runner.run(inputs, max_steps) for inputs in inputs_batch)


def run_batch_task(task: BatchTask) -> tuple[ExecutionResult, ...]:
    """Unpack one :data:`BatchTask` and run it (pool ``map`` entry point)."""
    return run_batch(*task)
