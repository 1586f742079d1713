"""Campaign fleet supervision: ``llm4fp serve``.

Shards, crash-safe resume and byte-identical
:func:`~repro.difftest.store.merge_shard_stores` turned one campaign
into N independent workers — but left a human as the scheduler.  This
package is the scheduler: an asyncio supervisor that launches one ``llm4fp run --shard i/n --resume`` worker per shard,
heartbeats each on its checkpoint file's tail growth, kills and
reassigns dead or stalled shards (bounded retries, exponential backoff,
then an honest partial verdict), splices the finished shard checkpoints
into a merged store byte-identical to an unkilled single-process run,
and records everything it did to a structured ``fleet_events.jsonl``.

Layering:

* :mod:`repro.fleet.targets` — where workers run: the
  :class:`~repro.fleet.targets.WorkerTarget` ABC and the local
  subprocess implementation (ssh/container targets slot in behind the
  same two-method surface).
* :mod:`repro.fleet.events` — the append-only fleet event log.
* :mod:`repro.fleet.supervisor` — the supervisor loop itself plus the
  :class:`~repro.fleet.supervisor.CampaignSpec` /
  :class:`~repro.fleet.supervisor.FleetConfig` knobs.
* :mod:`repro.fleet.queue` — queue mode: drain a JSONL job file,
  campaign after campaign, keeping the worker pool saturated.
"""

from repro.fleet.events import FleetEventLog, read_events
from repro.fleet.queue import drain_queue, load_jobs
from repro.fleet.supervisor import (
    CampaignSpec,
    FleetConfig,
    FleetResult,
    FleetSupervisor,
    ShardState,
    run_fleet,
)
from repro.fleet.targets import LocalProcessTarget, WorkerHandle, WorkerTarget

__all__ = [
    "CampaignSpec",
    "FleetConfig",
    "FleetEventLog",
    "FleetResult",
    "FleetSupervisor",
    "LocalProcessTarget",
    "ShardState",
    "WorkerHandle",
    "WorkerTarget",
    "drain_queue",
    "load_jobs",
    "read_events",
    "run_fleet",
]
