"""Backend names, worker counts, and the execute stage's dispatch point.

Two backends exist, and both are byte-identical:

* ``serial`` (the default) — every stage inline on the calling thread,
  one worker.
* ``process`` — for a feedback-free campaign, the one loop of
  :meth:`~repro.difftest.engine.CampaignEngine.run` hands whole programs
  to ``jobs - 1`` pool workers and tests every ``jobs``-th program
  itself; outcomes are checkpointed, observed and reported in index
  order, exactly as on ``serial``.  Feedback and island campaigns run
  inline on it: ``--islands`` is how they use more cores.

Kernels never cross a process boundary on their own: a single kernel
run costs less than the round trip that would ship it.  A thread pool is
absent too: the stages are pure Python, so under CPython's GIL it would
add scheduling cost and no parallelism.

:meth:`ExecutionBackend.run_batches` is where a program's execute stage
hands its distinct kernel runs over (one
:data:`~repro.execution.worker.KernelTask` in, one result out, in task
order); the engine dispatches through a plain :class:`SerialBackend`.
"""

from __future__ import annotations

import os
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
            "pass --backend process to test programs on "
            f"{resolved} workers"
        )


class ExecutionBackend:
    """The dispatch point of one program's execute stage.

    ``run_batches`` runs a batch of pure kernel executions — one
    :data:`~repro.execution.worker.KernelTask` in, one result out — in
    task order, inline.
    """

    name: str = "abstract"
    jobs: int = 1

    def run_batches(self, tasks: Sequence[KernelTask]) -> list[ExecutionResult]:
        """Execute every task (one kernel on one input vector), in order."""
        return [run_kernel_task(task) for task in tasks]


class SerialBackend(ExecutionBackend):
    """Everything inline; the reference for determinism and cost."""

    name = "serial"


class ProcessBackend(ExecutionBackend):
    """The ``process`` policy: ``jobs`` processes test whole programs.

    The fan-out lives in :meth:`~repro.difftest.engine.CampaignEngine.run`;
    inside each process a program's kernels still run inline.
    """

    name = "process"

    def __init__(self, jobs: int | str) -> None:
        self.jobs = resolve_jobs(jobs)

