"""The asyncio campaign supervisor behind ``llm4fp serve``.

One fleet = one campaign split into ``shard_count`` shards, driven to
completion by at most ``workers`` concurrent worker processes.  Each
shard's worker is an ordinary ``llm4fp run --shard i/n --resume`` —
exactly the command an operator would type — so everything the engine
already guarantees (fsync'd append-only checkpoints, crash-tail
truncation, generate-stage replay) is inherited rather than reinvented.
The supervisor adds the scheduling the human used to do:

* **heartbeat** — a worker is healthy iff its checkpoint's tail grows.
  The supervisor polls each running shard's file at a byte offset
  (:func:`repro.difftest.store.tail_outcomes`), so progress reads are
  incremental and work wherever the file lands (local disk, NFS from an
  ssh target).  Liveness is judged from the *artefact*, not the process:
  a worker that is alive but wedged is as dead as a killed one.
* **reassignment** — a shard whose worker died or stalled is relaunched
  with the same ``--resume`` checkpoint after an exponential backoff;
  the new worker replays the completed prefix and recomputes only what
  is missing.  Retries are bounded: after ``max_retries`` respawns the
  shard is abandoned and the fleet settles for an honest **partial**
  verdict instead of hanging.
* **merge** — when every shard completes, the shard checkpoints are
  spliced byte-identically into one merged store
  (:func:`repro.difftest.store.merge_shard_stores`).  The contract under
  test in ``tests/fleet/``: SIGKILL any worker mid-campaign and the
  merged store still matches an unkilled single-process run byte for
  byte.

Island campaigns (a feedback approach, or an explicit ``islands`` in the
spec) need no extra machinery here: each worker is an island that
exchanges merge-point records through the sibling checkpoints already
sitting in the fleet directory.  The one scheduling property they rely on
is that shards acquire worker slots in ascending index order (the
supervisor launches shard drivers in index order and holds a shard's
slot across its retries), because an island only ever waits on *lower*
islands — so a fleet with fewer workers than shards cannot deadlock on a
merge point, and a SIGKILLed island resumes, replays its generation
stream, and re-emits byte-identical records.

Every decision is recorded in ``fleet_events.jsonl``
(:mod:`repro.fleet.events`) with monotonic timestamps.
"""

from __future__ import annotations

import asyncio
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.difftest.backend import DEFAULT_BACKEND, check_backend, parse_jobs
from repro.difftest.store import merge_shard_stores, tail_outcomes
from repro.execution.worker import check_exec_mode
from repro.fleet.events import FleetEventLog
from repro.fleet.targets import LocalProcessTarget, WorkerTarget, worker_python

__all__ = [
    "CampaignSpec",
    "FleetConfig",
    "FleetResult",
    "FleetSupervisor",
    "ShardState",
    "run_fleet",
]

@dataclass(frozen=True)
class CampaignSpec:
    """What to run: one campaign, as its workers will see it.

    Fields left at ``None`` are omitted from worker command lines, so
    workers fall back to the CLI's own defaults / ``REPRO_*`` knobs —
    the spec only pins what the operator pinned.
    """

    approach: str = "loops"
    budget: int = 100
    seed: int = 20250916
    backend: str | None = None
    jobs: str | None = None
    exec_mode: str | None = None
    #: island-model generation: islands per campaign (None = worker
    #: default — 0, or auto-islands for a sharded feedback approach)
    islands: int | None = None
    #: island merge-point cadence (None = worker default)
    merge_every: int | None = None
    #: label used for the campaign's directory in queue mode
    name: str = ""

    def __post_init__(self) -> None:
        # Refuse what every worker would refuse; unpinned = worker default.
        if self.budget < 1:
            raise ValueError("budget must be positive")
        jobs = 1 if self.jobs is None else parse_jobs(str(self.jobs))
        check_backend(self.backend or DEFAULT_BACKEND, jobs)
        if self.exec_mode is not None:
            check_exec_mode(self.exec_mode)
        if self.islands is not None and self.islands < 0:
            raise ValueError("islands must be >= 0 (0 disables the island model)")
        if self.merge_every is not None and self.merge_every < 1:
            raise ValueError("merge_every must be >= 1")

    @classmethod
    def from_json(cls, record: dict) -> "CampaignSpec":
        """One queue-file job line -> a spec (unknown keys rejected)."""
        known = set(cls.__dataclass_fields__)
        extra = set(record) - known - {"shards"}
        if extra:
            raise ValueError(f"unknown job field(s): {sorted(extra)}")
        return cls(**{k: v for k, v in record.items() if k in known})

    def worker_argv(
        self, shard_index: int, shard_count: int, checkpoint: Path
    ) -> list[str]:
        """The exact ``llm4fp run`` invocation for one shard worker."""
        argv = [
            worker_python(),
            "-m",
            "repro.cli",
            "run",
            "--approach",
            self.approach,
            "--budget",
            str(self.budget),
            "--seed",
            str(self.seed),
            "--shard",
            f"{shard_index}/{shard_count}",
            "--resume",
            str(checkpoint),
            "--progress-json",
        ]
        if self.backend is not None:
            argv += ["--backend", self.backend]
        if self.jobs is not None:
            argv += ["--jobs", str(self.jobs)]
        if self.exec_mode is not None:
            argv += ["--exec-mode", self.exec_mode]
        if self.islands is not None:
            argv += ["--islands", str(self.islands)]
        if self.merge_every is not None:
            argv += ["--merge-every", str(self.merge_every)]
        return argv

    def owned(self, shard_index: int, shard_count: int) -> int:
        """How many budget indices shard ``i/n`` tests."""
        return len(range(shard_index, self.budget, shard_count))


@dataclass(frozen=True)
class FleetConfig:
    """Supervisor scheduling knobs (defaults mirror ``REPRO_FLEET_*``)."""

    workers: int = 2
    #: seconds between checkpoint-tail heartbeat polls
    heartbeat: float = 2.0
    #: seconds of zero row growth before a live worker is declared
    #: stalled, killed, and its shard reassigned
    stall_timeout: float = 300.0
    #: respawns granted to a shard after its first death/stall; the
    #: attempt budget per shard is ``max_retries + 1``
    max_retries: int = 2
    #: base of the exponential backoff between a death and the respawn
    #: (attempt k waits ``backoff * 2**(k-1)`` seconds)
    backoff: float = 0.5
    #: fault-injection hook: the first worker launched SIGKILLs itself
    #: right after its this-many-th checkpoint row (None = off; see
    #: :mod:`repro.fleet.chaos`).  Exists so tests, CI and sceptical
    #: operators can watch a kill get repaired.
    chaos_kill_after: int | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.heartbeat <= 0:
            raise ValueError("heartbeat must be positive")
        if self.stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")


@dataclass
class ShardState:
    """The supervisor's live view of one shard."""

    index: int
    checkpoint: Path
    owned: int
    rows: int = 0
    offset: int = 0  # byte offset of the next checkpoint tail read
    attempts: int = 0
    deaths: int = 0
    status: str = "pending"  # pending -> running -> done | failed

    @property
    def complete(self) -> bool:
        return self.rows >= self.owned


@dataclass
class FleetResult:
    """What a fleet run produced (also summarized in ``fleet-done``)."""

    spec: CampaignSpec
    shards: list[ShardState]
    events_path: Path
    merged_path: Path | None = None
    triage_path: Path | None = None
    corpus_report_path: Path | None = None
    status: str = "partial"  # "ok" | "partial"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def deaths(self) -> int:
        return sum(s.deaths for s in self.shards)


class FleetSupervisor:
    """Drives one campaign's shards to a merged store (or partial verdict).

    Construct with a spec, a shard count and a working directory; the
    directory accumulates one ``shardI_of_N.jsonl`` checkpoint per
    shard, per-attempt worker logs under ``logs/``, the event log, and
    (on success) ``merged.jsonl``.  ``target`` defaults to local
    subprocesses; tests substitute misbehaving targets to exercise the
    recovery paths.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        shard_count: int,
        workdir: str | Path,
        config: FleetConfig | None = None,
        target: WorkerTarget | None = None,
        chain_triage: bool = False,
        corpus_path: str | Path | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.spec = spec
        self.shard_count = shard_count
        self.workdir = Path(workdir)
        self.config = config or FleetConfig()
        self.target = target or LocalProcessTarget()
        self.chain_triage = chain_triage
        self.corpus_path = Path(corpus_path) if corpus_path else None
        self._clock = clock if clock is not None else time.monotonic
        self.events = FleetEventLog(
            self.workdir / "fleet_events.jsonl", clock=self._clock
        )
        self._chaos_armed = False

    # -- public entry ------------------------------------------------------------

    async def run(self) -> FleetResult:
        """Supervise the whole campaign; returns when settled either way."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        shards = [
            ShardState(
                index=i,
                checkpoint=self.workdir / f"shard{i}_of_{self.shard_count}.jsonl",
                owned=self.spec.owned(i, self.shard_count),
            )
            for i in range(self.shard_count)
        ]
        result = FleetResult(
            spec=self.spec, shards=shards, events_path=self.events.path
        )
        self.events.emit(
            "fleet-start",
            approach=self.spec.approach,
            budget=self.spec.budget,
            seed=self.spec.seed,
            shards=self.shard_count,
            workers=self.config.workers,
        )
        semaphore = asyncio.Semaphore(self.config.workers)
        await asyncio.gather(
            *(self._drive_shard(state, semaphore) for state in shards)
        )
        failed = [s.index for s in shards if s.status != "done"]
        if not failed:
            result.merged_path = self.workdir / "merged.jsonl"
            merge_shard_stores(
                [s.checkpoint for s in shards], result.merged_path
            )
            self.events.emit(
                "merge",
                path=str(result.merged_path),
                shards=self.shard_count,
                rows=self.spec.budget,
            )
            result.status = "ok"
            if self.chain_triage:
                result.triage_path = await self._run_triage(result.merged_path)
            if self.corpus_path is not None:
                result.corpus_report_path = await self._run_corpus(
                    result.merged_path
                )
        self.events.emit(
            "fleet-done",
            status=result.status,
            failed_shards=failed,
            deaths=result.deaths,
        )
        return result

    # -- per-shard driver --------------------------------------------------------

    async def _drive_shard(
        self, state: ShardState, semaphore: asyncio.Semaphore
    ) -> None:
        async with semaphore:
            state.status = "running"
            while True:
                state.attempts += 1
                argv = self.spec.worker_argv(
                    state.index, self.shard_count, state.checkpoint
                )
                chaos = None if self._chaos_armed else self.config.chaos_kill_after
                if chaos is not None:
                    self._chaos_armed = True
                    # The same "run ..." arguments, under the module that
                    # kills its own process after N rows.
                    argv = [argv[0], "-m", "repro.fleet.chaos", str(chaos)] + argv[3:]
                log_path = (
                    self.workdir
                    / "logs"
                    / f"shard{state.index}.attempt{state.attempts}.log"
                )
                handle = await self.target.launch(argv, log_path)
                self.events.emit(
                    "spawn",
                    shard=state.index,
                    attempt=state.attempts,
                    pid=handle.pid,
                    log=str(log_path),
                )
                reason, code = await self._monitor(state, handle)
                self._poll(state)  # the exit itself may have added rows
                if chaos is not None and code == -signal.SIGKILL:
                    self.events.emit(
                        "chaos-kill", shard=state.index, rows=state.rows
                    )
                if state.complete:
                    state.status = "done"
                    self.events.emit(
                        "shard-done",
                        shard=state.index,
                        rows=state.rows,
                        attempts=state.attempts,
                    )
                    return
                state.deaths += 1
                self.events.emit(
                    "stall" if reason == "stalled" else "death",
                    shard=state.index,
                    attempt=state.attempts,
                    rows=state.rows,
                    owned=state.owned,
                    exit_code=code,
                )
                if state.attempts > self.config.max_retries:
                    state.status = "failed"
                    self.events.emit(
                        "shard-failed",
                        shard=state.index,
                        rows=state.rows,
                        owned=state.owned,
                        attempts=state.attempts,
                    )
                    return
                delay = self.config.backoff * (2 ** (state.attempts - 1))
                if delay:
                    await asyncio.sleep(delay)
                self.events.emit(
                    "reassign",
                    shard=state.index,
                    attempt=state.attempts + 1,
                    backoff_seconds=round(delay, 3),
                    resuming_rows=state.rows,
                )

    async def _monitor(self, state: ShardState, handle) -> tuple[str, int | None]:
        """Watch one worker until it exits or stalls; returns (reason, code)."""
        waiter = asyncio.ensure_future(handle.wait())
        last_growth = self._clock()
        try:
            while True:
                done, _ = await asyncio.wait(
                    {waiter}, timeout=self.config.heartbeat
                )
                if self._poll(state):
                    last_growth = self._clock()
                if waiter in done:
                    return "exit", waiter.result()
                if self._clock() - last_growth >= self.config.stall_timeout:
                    handle.kill()
                    await waiter
                    return "stalled", None
        finally:
            if not waiter.done():
                handle.kill()
                await waiter

    def _poll(self, state: ShardState) -> bool:
        """One incremental checkpoint tail read; emits progress on growth."""
        indices, offset = tail_outcomes(state.checkpoint, state.offset)
        state.offset = offset
        if not indices:
            return False
        state.rows += len(indices)
        self.events.emit(
            "progress",
            shard=state.index,
            rows=state.rows,
            owned=state.owned,
            attempt=state.attempts,
        )
        return True

    # -- post-merge chaining -----------------------------------------------------

    async def _run_triage(self, merged_path: Path) -> Path | None:
        """Chain ``llm4fp triage`` over the merged store (best-effort)."""
        report_path = self.workdir / "triage_report.txt"
        argv = [
            worker_python(),
            "-m",
            "repro.cli",
            "triage",
            str(merged_path),
            "--out",
            str(report_path),
        ]
        handle = await self.target.launch(
            argv, self.workdir / "logs" / "triage.log"
        )
        code = await handle.wait()
        self.events.emit(
            "triage",
            exit_code=code,
            report=str(report_path) if code == 0 else None,
        )
        return report_path if code == 0 else None

    async def _run_corpus(self, merged_path: Path) -> Path | None:
        """Chain ``llm4fp corpus ingest`` over the merged store.

        Folds the campaign's triggers into the longitudinal corpus and
        leaves the never-seen signatures in ``corpus_new.txt`` — the
        fleet's "what did tonight actually find" artifact.  Best-effort
        like triage: a failure is recorded, never fatal to the verdict.
        """
        report_path = self.workdir / "corpus_new.txt"
        argv = [
            worker_python(),
            "-m",
            "repro.cli",
            "corpus",
            "ingest",
            str(self.corpus_path),
            str(merged_path),
            "--label",
            self.spec.name or self.spec.approach,
            "--out",
            str(report_path),
        ]
        handle = await self.target.launch(
            argv, self.workdir / "logs" / "corpus.log"
        )
        code = await handle.wait()
        self.events.emit(
            "corpus",
            exit_code=code,
            corpus=str(self.corpus_path),
            report=str(report_path) if code == 0 else None,
        )
        return report_path if code == 0 else None


def run_fleet(
    spec: CampaignSpec,
    shard_count: int,
    workdir: str | Path,
    config: FleetConfig | None = None,
    target: WorkerTarget | None = None,
    chain_triage: bool = False,
    corpus_path: str | Path | None = None,
) -> FleetResult:
    """Synchronous front door: supervise one campaign to its verdict.

    >>> spec = CampaignSpec(approach="loops", budget=4, seed=1)
    >>> spec.owned(0, 2), spec.owned(1, 2)
    (2, 2)
    """
    supervisor = FleetSupervisor(
        spec,
        shard_count,
        workdir,
        config=config,
        target=target,
        chain_triage=chain_triage,
        corpus_path=corpus_path,
    )
    return asyncio.run(supervisor.run())


def format_fleet_summary(result: FleetResult) -> str:
    """The human-facing settlement report ``llm4fp serve`` prints."""
    lines = [
        f"fleet:       {result.spec.approach} budget={result.spec.budget} "
        f"seed={result.spec.seed}",
        f"shards:      {len(result.shards)}",
        f"deaths:      {result.deaths}",
        f"status:      {result.status}",
    ]
    for s in result.shards:
        lines.append(
            f"  shard {s.index}: {s.status:<6} rows {s.rows}/{s.owned} "
            f"attempts {s.attempts}"
        )
    if result.merged_path is not None:
        lines.append(f"merged:      {result.merged_path}")
    if result.triage_path is not None:
        lines.append(f"triage:      {result.triage_path}")
    if result.corpus_report_path is not None:
        lines.append(f"corpus new:  {result.corpus_report_path}")
    lines.append(f"events:      {result.events_path}")
    return "\n".join(lines)
