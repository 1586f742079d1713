"""Deterministic IR execution — the 'hardware' the simulated binaries run on."""

from repro.execution.interp import Interpreter
from repro.execution.result import ExecutionResult, ExecStatus
from repro.execution.limits import DEFAULT_MAX_STEPS
from repro.execution.worker import DEFAULT_EXEC_MODE, EXEC_MODES, run_kernel
from repro.execution.tape import Tape, compile_tape

__all__ = [
    "Interpreter",
    "ExecutionResult",
    "ExecStatus",
    "DEFAULT_MAX_STEPS",
    "DEFAULT_EXEC_MODE",
    "EXEC_MODES",
    "Tape",
    "compile_tape",
    "run_kernel",
]
