"""Execution backends: how the engine's execute stage fans out.

The staged engine treats "run these independent work units" as a policy
decision separated from the stages themselves.  Two policies exist:

* :class:`SerialBackend` — everything inline on the calling thread, the
  default.  The reference cost model; zero scheduling overhead.
* :class:`ProcessBackend` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  for the execute stage.  Kernel runs are dispatched as picklable task
  specs (optimized IR, FP environment, input vector, step limit, exec
  mode) through the pure :func:`repro.execution.worker.run_kernel_task`,
  chunked to amortize IPC.  This is real multi-core parallelism: each run
  is independent.

A thread pool is deliberately absent: the stages are pure Python, so
under CPython's GIL it added scheduling cost and no parallelism.

Backends schedule execution only: the engine compiles in the calling
thread, where one per-program pass memo sees every compilation.

Every backend returns results in task order, so the engine fills its
records in the same deterministic sequence regardless of policy: a
:class:`~repro.difftest.record.CampaignResult` is byte-identical across
backends and job counts (the worker's purity guarantee plus pickle's
bit-exact float round-trip).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from repro.execution.worker import KernelTask, run_kernel_task
from repro.execution.result import ExecutionResult

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BackendError",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "check_backend",
    "create_backend",
    "parse_jobs",
    "resolve_jobs",
]

#: Recognized backend names, in increasing isolation order.
BACKENDS = ("serial", "process")

#: The backend every surface (engine, settings, CLI) uses when none is named.
DEFAULT_BACKEND = "serial"


class BackendError(ValueError):
    """An unknown backend name, or a worker count the named backend cannot run."""


def resolve_jobs(jobs: int | str) -> int:
    """Normalize a jobs knob: a positive int, or ``"auto"`` for one worker
    per available CPU."""
    if jobs == "auto":
        return os.cpu_count() or 1
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(f"jobs must be a positive int or 'auto', got {jobs!r}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


def parse_jobs(text: str) -> int | str:
    """Parse a user-facing jobs string (CLI flag, env var): a decimal
    worker count or the literal ``auto``.  The single authority every
    surface delegates to."""
    if text == "auto":
        return "auto"
    try:
        jobs = int(text)
    except ValueError as e:
        raise ValueError(f"jobs must be an integer or 'auto', got {text!r}") from e
    resolve_jobs(jobs)  # range check
    return jobs


def check_backend(name: str, jobs: int | str) -> None:
    """Validate a (backend, jobs) pair: the one check every surface shares.

    An unknown name, or more than one worker on the inline serial
    backend, raises :class:`BackendError`.
    """
    if name not in BACKENDS:
        raise BackendError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    resolved = resolve_jobs(jobs)
    if name == "serial" and resolved != 1:
        raise BackendError(
            f"the serial backend runs inline and cannot use jobs={jobs}; "
            "pass --backend process to run the execute stage on "
            f"{resolved} workers"
        )


class ExecutionBackend:
    """Ordered fan-out of independent kernel executions.

    ``run_batches`` schedules a batch of pure kernel executions — one
    :data:`~repro.execution.worker.KernelTask` in, one result out —
    possibly across a process boundary, and preserves task order.
    Backends are context managers; pools are created lazily on first use
    and torn down on exit.
    """

    name: str = "abstract"
    jobs: int = 1

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Release pool resources (idempotent)."""

    def run_batches(self, tasks: Sequence[KernelTask]) -> list[ExecutionResult]:
        """Execute every task (one kernel on one input vector), in order."""
        return [run_kernel_task(task) for task in tasks]


class SerialBackend(ExecutionBackend):
    """Everything inline; the reference for determinism and cost."""

    name = "serial"


class ProcessBackend(ExecutionBackend):
    """Process-pool fan-out of the execute stage (true multi-core).

    Execute tasks ship to workers as picklable specs and
    results gather in task order, so output is byte-identical to
    :class:`SerialBackend`.
    """

    name = "process"

    def __init__(self, jobs: int) -> None:
        self.jobs = resolve_jobs(jobs)
        self._pool: ProcessPoolExecutor | None = None

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def run_batches(self, tasks: Sequence[KernelTask]) -> list[ExecutionResult]:
        if self.jobs == 1 or len(tasks) < 2:
            return [run_kernel_task(task) for task in tasks]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        # Tasks per IPC message: enough to amortize pickling, few enough to
        # keep all workers fed (at least two waves per worker when possible).
        chunksize = max(1, len(tasks) // (self.jobs * 2))
        return list(self._pool.map(run_kernel_task, tasks, chunksize=chunksize))


def create_backend(name: str, jobs: int | str) -> ExecutionBackend:
    """Instantiate the named backend with ``jobs`` workers."""
    check_backend(name, jobs)
    if name == "serial":
        return SerialBackend()
    return ProcessBackend(jobs)
