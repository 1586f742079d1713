"""The fleet's structured event log: ``fleet_events.jsonl``.

Every scheduling decision the supervisor makes — spawning a worker,
observing checkpoint growth, declaring a death or a stall, reassigning a
shard, merging, settling for a partial verdict — is appended here as one
JSON line the moment it happens, so a campaign that ran unattended
overnight is post-mortem-able from the file alone.

Timestamps are **monotonic seconds since the fleet started** (never
wall-clock): they order events correctly across clock adjustments, and
two events' difference is always a real duration.  The log is
append-only JSONL with one fsync'd line per event, the same durability
discipline as the campaign checkpoint store.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable

from repro.difftest.store import read_complete_lines

__all__ = ["EVENT_KINDS", "FleetEventLog", "read_events"]

#: Every event kind the supervisor emits, in rough lifecycle order.
EVENT_KINDS = (
    "fleet-start",   # campaign spec + shard/worker counts
    "spawn",         # a worker process launched for (shard, attempt)
    "progress",      # checkpoint tail grew: rows completed so far
    "chaos-kill",    # the fault-injection hook fired (testing aid)
    "death",         # a worker exited with its shard incomplete
    "stall",         # no row growth for stall_timeout; worker killed
    "reassign",      # a fresh worker will resume the shard's checkpoint
    "shard-done",    # a shard's checkpoint covers every owned index
    "shard-failed",  # retries exhausted; shard abandoned incomplete
    "merge",         # shard checkpoints spliced into the merged store
    "triage",        # chained triage ran over the merged store
    "corpus",        # chained corpus ingest ran over the merged store
    "fleet-done",    # final verdict: ok or partial
)


class FleetEventLog:
    """Append-only JSONL event log with monotonic timestamps.

    ``clock`` is injectable (tests pin it) and defaults to
    :func:`time.monotonic`; the first emit anchors t=0, so timestamps
    read as seconds into the fleet run.
    """

    def __init__(
        self, path: str | os.PathLike, clock: Callable[[], float] | None = None
    ) -> None:
        self.path = Path(path)
        self._clock = clock if clock is not None else time.monotonic
        self._t0: float | None = None

    def emit(self, event: str, /, **fields) -> dict:
        """Durably append one event; returns the record written."""
        if event not in EVENT_KINDS:
            raise ValueError(
                f"unknown fleet event {event!r}; expected one of {EVENT_KINDS}"
            )
        now = self._clock()
        if self._t0 is None:
            self._t0 = now
        record = {"t": round(now - self._t0, 3), "event": event, **fields}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as f:
            f.write(json.dumps(record, separators=(",", ":")) + "\n")
            f.flush()
            os.fsync(f.fileno())
        return record


def read_events(path: str | os.PathLike) -> list[dict]:
    """All complete events in a ``fleet_events.jsonl``, in emit order.

    A partial final line (the supervisor died mid-append) is dropped,
    mirroring the checkpoint store's crash-tail rule: everything before
    it is trusted.
    """
    events, _, _ = read_complete_lines(path)
    return events
