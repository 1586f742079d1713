"""Queue mode: drain a JSONL job file, campaign after campaign.

``llm4fp serve --queue jobs.jsonl`` reads one job per line::

    {"name": "varity-nightly", "approach": "varity", "budget": 2000,
     "seed": 1, "shards": 8}
    {"approach": "loops", "budget": 500, "seed": 2, "shards": 4}

and supervises each in turn with the same worker pool, so N workers
stay saturated for as long as the queue has work (shards within a
campaign fan out concurrently; campaigns run in file order, which keeps
every job's merged store attributable to one contiguous burst of the
event log).  Each job gets its own subdirectory of the fleet dir —
``001-varity-nightly/``, ``002-loops/`` — holding its shard
checkpoints, worker logs, ``fleet_events.jsonl`` and ``merged.jsonl``.

Blank lines and ``#`` comment lines are allowed, so a queue file can be
maintained by hand.  A malformed job line fails fast *before* any
campaign runs: half-draining a queue and then discovering a typo in job
7 wastes machines.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.difftest.backend import BackendError
from repro.fleet.supervisor import (
    CampaignSpec,
    FleetConfig,
    FleetResult,
    FleetSupervisor,
)
from repro.fleet.targets import WorkerTarget

__all__ = ["QueueError", "load_jobs", "job_dirname", "drain_queue"]


class QueueError(ValueError):
    """A queue file that cannot be read, or a job line that is malformed."""


def load_jobs(path: str | os.PathLike) -> list[tuple[CampaignSpec, int]]:
    """Parse a queue file into ``(spec, shard_count)`` jobs, validated.

    Raises :class:`QueueError` (:class:`BackendError` for a backend/jobs
    mismatch) naming ``path:line`` on the first malformed job — the whole
    file is vetted before anything runs.
    """
    jobs: list[tuple[CampaignSpec, int]] = []
    data = Path(path).read_bytes()
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            stripped = raw.decode("utf-8").strip()
        except UnicodeDecodeError as e:
            raise QueueError(f"{path}:{lineno}: not UTF-8 text: {e}") from e
        if not stripped or stripped.startswith("#"):
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as e:
            raise QueueError(f"{path}:{lineno}: not valid JSON: {e}") from e
        if not isinstance(record, dict):
            raise QueueError(f"{path}:{lineno}: job must be a JSON object")
        try:
            spec = CampaignSpec.from_json(record)
        except BackendError as e:
            raise BackendError(f"{path}:{lineno}: {e}") from e
        except (TypeError, ValueError) as e:
            raise QueueError(f"{path}:{lineno}: {e}") from e
        shards = record.get("shards", 1)
        if not isinstance(shards, int) or shards < 1:
            raise QueueError(
                f"{path}:{lineno}: 'shards' must be a positive integer, "
                f"got {shards!r}"
            )
        jobs.append((spec, shards))
    if not jobs:
        raise QueueError(f"{path}: queue file contains no jobs")
    return jobs


def job_dirname(position: int, spec: CampaignSpec) -> str:
    """``001-name`` (or ``001-approach`` when the job is unnamed)."""
    label = spec.name or spec.approach
    safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in label)
    return f"{position:03d}-{safe}"


async def drain_queue(
    path: str | os.PathLike,
    workdir: str | Path,
    config: FleetConfig | None = None,
    target: WorkerTarget | None = None,
    chain_triage: bool = False,
    corpus_path: str | Path | None = None,
) -> list[FleetResult]:
    """Supervise every job in the queue file; returns results in order.

    A partial verdict on one job does not stop the queue — later jobs
    still run, and the caller inspects each result's ``status`` (the
    CLI exits non-zero if *any* job settled partial).  ``corpus_path``
    names one longitudinal corpus shared by every job: campaigns ingest
    in queue order, so the second job's diff already knows the first
    job's findings.
    """
    workdir = Path(workdir)
    results: list[FleetResult] = []
    for position, (spec, shards) in enumerate(load_jobs(path), start=1):
        supervisor = FleetSupervisor(
            spec,
            shards,
            workdir / job_dirname(position, spec),
            config=config,
            target=target,
            chain_triage=chain_triage,
            corpus_path=corpus_path,
        )
        results.append(await supervisor.run())
    return results
