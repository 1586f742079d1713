"""Execution backends: how the engine's per-program matrix fans out.

The staged engine treats "run these independent work units" as a policy
decision separated from the stages themselves.  Three policies exist:

* :class:`SerialBackend` — everything inline on the calling thread.  The
  reference cost model; zero scheduling overhead.
* :class:`ThreadBackend` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  Adds scheduling slack but no CPU parallelism under CPython's GIL; pays
  off on GIL-free runtimes or once stages grow I/O sections.
* :class:`ProcessBackend` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  for the execute stage.  Kernel runs are dispatched as picklable batch
  specs (optimized IR, FP environment, input sets, step limit, exec mode)
  through the pure :func:`repro.execution.batch.run_batch_task`, chunked
  to amortize IPC.  This is real multi-core parallelism: each run is
  independent.  Compile-stage work stays in the parent process, where
  compilations are cheap relative to execution.

Every backend returns results in task order, so the engine fills its
records in the same deterministic sequence regardless of policy: a
:class:`~repro.difftest.record.CampaignResult` is byte-identical across
backends and job counts (the worker's purity guarantee plus pickle's
bit-exact float round-trip).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Sequence

from repro.execution.batch import BatchTask, run_batch_task
from repro.execution.result import ExecutionResult

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "create_backend",
    "parse_jobs",
    "resolve_jobs",
]

#: Recognized backend names, in increasing isolation order.
BACKENDS = ("serial", "thread", "process")


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


class ExecutionBackend:
    """Ordered fan-out of independent work units.

    ``map_inline`` schedules parent-process callables (the compile stage);
    ``run_batches`` schedules pure kernel executions and is the only hook
    a backend may move across a process boundary.  Both preserve input
    order.  Backends are context managers; pools are created lazily on
    first use and torn down on exit.
    """

    name: str = "abstract"
    jobs: int = 1

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Release pool resources (idempotent)."""

    def map_inline(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to every item, in order, in the parent process."""
        return [fn(item) for item in items]

    def run_batches(
        self, tasks: Sequence[BatchTask]
    ) -> list[tuple[ExecutionResult, ...]]:
        """Execute every batched task (one kernel, many input sets), in
        order; one tape compile (or interpreter) per task instead of per
        input."""
        return [run_batch_task(task) for task in tasks]


class SerialBackend(ExecutionBackend):
    """Everything inline; the reference for determinism and cost."""

    name = "serial"


class ThreadBackend(ExecutionBackend):
    """Thread-pool fan-out of both compile and execute units."""

    name = "thread"

    def __init__(self, jobs: int) -> None:
        self.jobs = resolve_jobs(jobs)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="campaign"
            )
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def map_inline(self, fn: Callable, items: Sequence) -> list:
        if self.jobs == 1 or len(items) < 2:
            return [fn(item) for item in items]
        return list(self._ensure().map(fn, items))

    def run_batches(
        self, tasks: Sequence[BatchTask]
    ) -> list[tuple[ExecutionResult, ...]]:
        if self.jobs == 1 or len(tasks) < 2:
            return [run_batch_task(task) for task in tasks]
        return list(self._ensure().map(run_batch_task, tasks))


def _chunksize(n_tasks: int, jobs: int) -> int:
    """Tasks per IPC message: enough to amortize pickling, small enough to
    keep all workers fed (at least two waves per worker when possible)."""
    return max(1, n_tasks // (jobs * 2))


class ProcessBackend(ExecutionBackend):
    """Process-pool fan-out of the execute stage (true multi-core).

    Compile units run inline in the parent: they are cheap relative to
    execution.  Execute tasks ship to workers as picklable specs and
    results gather in task order, so output is byte-identical to
    :class:`SerialBackend`.
    """

    name = "process"

    def __init__(self, jobs: int) -> None:
        self.jobs = resolve_jobs(jobs)
        self._pool: ProcessPoolExecutor | None = None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def run_batches(
        self, tasks: Sequence[BatchTask]
    ) -> list[tuple[ExecutionResult, ...]]:
        if self.jobs == 1 or len(tasks) < 2:
            return [run_batch_task(task) for task in tasks]
        pool = self._ensure()
        return list(
            pool.map(
                run_batch_task, tasks, chunksize=_chunksize(len(tasks), self.jobs)
            )
        )


def create_backend(name: str, jobs: int | str) -> ExecutionBackend:
    """Instantiate the named backend with ``jobs`` workers."""
    if name == "serial":
        if resolve_jobs(jobs) != 1:
            raise ValueError("the serial backend runs inline; use jobs=1")
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(jobs)
    if name == "process":
        return ProcessBackend(jobs)
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
