"""The staged campaign engine (paper Figure 1, decomposed).

A campaign generates a program, compiles it with every (compiler,
level) pair, runs every binary and compares the outputs.
:meth:`CampaignEngine.run` is the one way to run a campaign; this
module splits its loop into five explicit stages with typed per-stage
records and makes the compile+execute matrix — the embarrassingly
parallel middle of the loop — deduplicated and concurrently
schedulable:

* **generate** — ask the generator for the next program.  Stays serial:
  the feedback loop (triggering programs re-seed the generator) makes
  program *i+1* depend on the verdict for program *i*.
* **frontend** — parse once, then sema / lower once per target kind
  (:class:`~repro.toolchains.base.CompilerKind`); host compilers share the
  C unit, the device compiler gets its CUDA translation.
* **compile** — one :class:`CompileRecord` per (compiler, level), each
  compiled through one pass memo per program, which runs each distinct
  pass (:meth:`~repro.ir.passes.base.Pass.key`) once per input kernel
  object across levels and compilers.  Levels whose (pipeline,
  environment) coincide (equal ``Compiler.cache_token``) thus get the
  same optimized kernel object without running a pass.
* **execute** — runs every compiled binary and writes its
  :class:`~repro.execution.result.ExecutionResult` onto the cell's
  :class:`CompileRecord`.  Binaries holding the same optimized kernel
  *object* under equal environments produce bit-identical results, so
  each (kernel object, environment) group runs once and its cells share
  the one result; no kernel is walked.
* **compare** — reads the cells in matrix order into the outcome, then
  compares their signatures pairwise at each level.  Structural tier
  evidence (devectorized content keys, tier shapes) is computed lazily,
  only for the inconsistent pairs whose scalar environments are equal
  and whose devectorized kernels match — the only pairs that can carry a
  tag, and the only use of content keys.

Compilation and execution run in the calling process, in matrix order;
each distinct execute unit is dispatched through
:meth:`~repro.difftest.backend.ExecutionBackend.run_batches`.
:meth:`CampaignEngine.run` is one loop for every configuration: it
generates each program, queues it, and settles outcomes in index order.
With ``backend="process"`` and more than one job, the queue of a
feedback-free campaign holds *whole programs* a process pool is testing
(generation, checkpointing and reporting stay in the parent), so a
:class:`CampaignResult` is byte-identical across backends and job
counts — only the stage timings differ.

Two campaign-scale facilities ride on that determinism:

* **resume** — give :meth:`CampaignEngine.run` a
  :class:`~repro.difftest.store.CampaignStore` and every completed
  program is checkpointed to JSONL; an interrupted campaign replays the
  cheap generate stage (restoring the generator's feedback state from the
  stored verdicts) and recomputes only unfinished programs.
* **sharding** — ``shard i/n`` deterministically partitions the budget by
  ``index % n`` so n machines produce disjoint shard checkpoints whose
  :func:`~repro.difftest.store.merge_shard_stores` splice is
  byte-identical to an unsharded run's.  Feedback generators shard as islands
  (``EngineConfig.islands``), which partition generation itself.

Note on throughput: on the serial backend the savings come from the
in-program *dedup* — the pass memo and run sharing (``shared_runs`` of
``total_runs``).  The ``process`` backend adds CPU parallelism by
testing ``jobs`` programs at once, a program being the smallest unit
worth a round trip.  Feedback and island campaigns run inline on it
(program *i+1* depends on the verdict for *i*); ``islands`` is how they
use more cores.  Nothing is cached across programs: every compiled
binary and tape dies with its program.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading
from collections import Counter, deque
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import combinations

from repro.difftest.backend import (
    DEFAULT_BACKEND,
    SerialBackend,
    check_backend,
    resolve_jobs,
)
from repro.difftest.compare import digit_difference
from repro.difftest.config import CampaignConfig
from repro.difftest.record import CampaignResult, ComparisonRecord, ProgramOutcome
from repro.errors import CompileError, ReproError
from repro.execution.worker import DEFAULT_EXEC_MODE, check_exec_mode
from repro.execution.result import ExecutionResult, _value_hex
from repro.frontend.parser import parse_program
from repro.frontend.sema import check_program
from repro.generation.islands import IslandCoordinator
from repro.generation.program import (
    GeneratedProgram,
    ProgramGenerator,
    generator_capabilities,
)
from repro.ir import nodes as ir
from repro.ir.lower import lower_compute
from repro.tiers import structural_tag
from repro.toolchains.base import Binary, Compiler, CompilerKind
from repro.toolchains.cache import env_fingerprint
from repro.toolchains.cuda import translate_to_cuda
from repro.toolchains.optlevels import OptLevel
from repro.utils.timing import Stopwatch

__all__ = [
    "EngineConfig",
    "FrontendRecord",
    "CompileRecord",
    "CampaignEngine",
    "JsonLineProgress",
    "STAGES",
    "frontend_kernels",
]

#: Stage names in pipeline order (the report's time buckets).
STAGES = ("generate", "frontend", "compile", "execute", "compare")


class JsonLineProgress:
    """Machine-readable campaign progress: one JSON line per program.

    A drop-in for the ``progress`` callback of :meth:`CampaignEngine.run`
    that emits ``{"event": "program", "index": ..., "done": ...,
    "budget": ..., "triggered": ..., "inconsistencies": ...}`` per
    completed program (and a final ``campaign-done`` line from
    :meth:`finish`), flushed immediately so a supervising process can
    consume the stream live.  ``llm4fp run --progress-json`` wires this
    to stderr; the fleet supervisor primarily heartbeats on checkpoint
    tail growth (which survives worker death), with these lines as the
    finer-grained, human-greppable view in per-worker logs.

    ``done`` counts programs this process completed, which under
    ``--shard i/n`` differs from ``index`` (shards skip unowned indices).
    """

    def __init__(self, budget: int, stream=None) -> None:
        self.budget = budget
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.triggered = 0
        self.inconsistencies = 0

    def _emit(self, record: dict) -> None:
        self.stream.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.stream.flush()

    def __call__(self, index: int, outcome: ProgramOutcome) -> None:
        self.done += 1
        self.triggered += bool(outcome.triggered)
        self.inconsistencies += len(outcome.inconsistent_comparisons)
        self._emit(
            {
                "event": "program",
                "index": index,
                "done": self.done,
                "budget": self.budget,
                "triggered": bool(outcome.triggered),
                "inconsistencies": self.inconsistencies,
            }
        )

    def finish(self) -> None:
        self._emit(
            {
                "event": "campaign-done",
                "done": self.done,
                "budget": self.budget,
                "triggering_programs": self.triggered,
                "inconsistencies": self.inconsistencies,
            }
        )


@dataclass(frozen=True)
class EngineConfig:
    """Execution knobs of the engine (orthogonal to the campaign config).

    Attributes:
        jobs: processes testing programs at once (the calling one
            included); ``1`` runs every stage inline, ``"auto"`` uses one
            per CPU.  More than one needs ``backend="process"``.
        backend: fan-out policy — ``"serial"`` (inline, requires jobs=1;
            the default) or ``"process"`` (whole programs of a
            feedback-free, island-free campaign fan out to ``jobs - 1``
            pool workers; feedback and island campaigns run inline).
            Results are byte-identical across both.
        shard_index / shard_count: run only budget indices where
            ``index % shard_count == shard_index``; disjoint shard
            checkpoints merge to the unsharded one
            (:func:`repro.difftest.store.merge_shard_stores`).
        islands: ``0`` (off) replays the whole generation stream on every
            shard (feedback-free generators only); ``n >= 1`` partitions
            *generation itself* into ``n`` islands (budget index ``i``
            belongs to island ``i % n``), each evolving its own population
            — the sharding mode that admits feedback generators.  A
            sharded island campaign needs ``islands == shard_count``.
        merge_every: island merge-point cadence — after every
            ``merge_every`` owned programs an island exports its top
            triggers and imports its lower-numbered peers' same-generation
            exports (see :mod:`repro.generation.islands`).
        island_peers: sibling checkpoint paths (one per island, island
            order) for a *sharded* island campaign; how concurrently
            running shards find each other's merge-point exports.
        exec_mode: how the execute stage runs kernels — ``"tape"``
            (compiled register-machine tapes, the default) or
            ``"check"`` (the tape and the reference tree-walk
            interpreter, raising :class:`~repro.errors.ExecutionDivergence`
            on any bit of disagreement).  Both produce byte-identical
            campaign results; ``REPRO_EXEC_MODE`` overrides the default.
    """

    jobs: int | str = 1
    backend: str = DEFAULT_BACKEND
    shard_index: int = 0
    shard_count: int = 1
    islands: int = 0
    merge_every: int = 25
    island_peers: tuple = ()
    exec_mode: str = field(
        default_factory=lambda: os.environ.get("REPRO_EXEC_MODE", DEFAULT_EXEC_MODE)
    )

    def __post_init__(self) -> None:
        check_backend(self.backend, self.jobs)
        check_exec_mode(self.exec_mode)
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not 0 <= self.shard_index < self.shard_count:
            raise ValueError(
                f"shard_index must be in [0, {self.shard_count}), "
                f"got {self.shard_index}"
            )
        if self.islands < 0:
            raise ValueError("islands must be >= 0 (0 disables the island model)")
        if self.merge_every < 1:
            raise ValueError("merge_every must be >= 1")
        if self.islands and self.shard_count > 1 and self.islands != self.shard_count:
            raise ValueError(
                "sharded island campaigns need one island per shard: "
                f"islands={self.islands}, shard_count={self.shard_count}"
            )
        if self.island_peers and not self.islands:
            raise ValueError("island_peers given but islands=0")

    @property
    def resolved_jobs(self) -> int:
        """The effective worker count (``"auto"`` resolved to CPU count)."""
        return resolve_jobs(self.jobs)

    def owns(self, index: int) -> bool:
        """Whether this shard tests budget index ``index``."""
        return index % self.shard_count == self.shard_index


@dataclass
class FrontendRecord:
    """Per-kind front-end artefacts of one program."""

    kernels: dict[CompilerKind, ir.Kernel] = field(default_factory=dict)
    errors: dict[CompilerKind, str] = field(default_factory=dict)


@dataclass
class CompileRecord:
    """One (compiler, level) cell: its compiled binary and, once the
    execute stage ran, that binary's result (shared with every cell
    holding the same kernel object under an equal environment)."""

    compiler: str
    level: OptLevel
    ok: bool
    binary: Binary | None = None
    error: str | None = None
    result: ExecutionResult | None = None

    @property
    def label(self) -> str:
        return f"{self.compiler}/{self.level}"


def frontend_kernels(source: str) -> FrontendRecord:
    """Front-end ``source`` once per target kind (§2.4).

    The source is parsed once.  Host compilers share its sema and
    lowering; the device compiler gets its own sema and lowering of the
    CUDA translation, an AST rewrite of the same unit.  A front-end
    failure for a kind fails all its compilations, recorded per-kind in
    ``errors``.
    Shared by the engine's frontend stage and by the triage subsystem
    (reduction re-validation and pass-pipeline bisection replay).
    """
    record = FrontendRecord()
    try:
        unit = parse_program(source)
        sema = check_program(unit)
        record.kernels[CompilerKind.HOST] = lower_compute(sema)
    except ReproError as e:
        record.errors[CompilerKind.HOST] = str(e)
        record.errors.setdefault(CompilerKind.DEVICE, str(e))
        return record
    try:
        cuda_unit = translate_to_cuda(unit)
        cuda_sema = check_program(cuda_unit)
        record.kernels[CompilerKind.DEVICE] = lower_compute(cuda_sema)
    except ReproError as e:
        record.errors[CompilerKind.DEVICE] = str(e)
    return record


def _check_replay(
    index: int, stored: ProgramOutcome, program: GeneratedProgram
) -> None:
    """A checkpointed outcome must describe the program the generator just
    replayed — otherwise the store belongs to a different campaign/seed."""
    if stored.program.source != program.source:
        raise ValueError(
            f"checkpoint mismatch at program {index}: stored source differs "
            "from the regenerated program (wrong store for this "
            "approach/seed/config?)"
        )


def _validate_compilers(compilers: list[Compiler]) -> None:
    if len(compilers) < 2:
        names = ", ".join(c.name for c in compilers) or "none"
        raise ValueError(
            "differential testing needs at least two compilers, "
            f"got {len(compilers)} ({names})"
        )
    counts = Counter(c.name for c in compilers)
    dupes = sorted(name for name, n in counts.items() if n > 1)
    if dupes:
        raise ValueError(
            "compiler names must be unique; "
            f"got {len(compilers)} compilers with duplicate name(s): "
            f"{', '.join(dupes)}"
        )


class CampaignEngine:
    """Runs campaigns as explicit generate/frontend/compile/execute/compare
    stages over a fixed compiler matrix.

    The engine owns the within-matrix dedup; :class:`EngineConfig`
    selects the fan-out backend, worker count and sharding.  Results are
    byte-identical across every backend/jobs configuration — only stage
    timings differ.

    Typical use::

        engine = CampaignEngine(
            default_compilers(),
            CampaignConfig(budget=200),
            EngineConfig(backend="process", jobs="auto"),
        )
        result = engine.run(make_generator("loops", SplittableRng(1)))

    ``run`` drives a generator through the full budget (optionally
    checkpointed via a :class:`~repro.difftest.store.CampaignStore`);
    ``test_program`` pushes a single already-generated program through
    the frontend/compile/execute/compare stages.
    """

    def __init__(
        self,
        compilers: list[Compiler],
        config: CampaignConfig | None = None,
        engine_config: EngineConfig | None = None,
    ) -> None:
        _validate_compilers(compilers)
        self.compilers = list(compilers)
        profiles = {c.tiers for c in self.compilers}
        if len(profiles) > 1:
            raise ValueError(
                "compilers disagree on the divergence-tier profile "
                f"({', '.join(sorted(profiles))}); structural tags are only "
                "meaningful when every side compiles under one profile"
            )
        #: the campaign's divergence-tier profile (uniform across compilers)
        self.tiers = profiles.pop()
        self.config = config or CampaignConfig()
        self.engine_config = engine_config or EngineConfig()
        #: within-program dedup counters (aggregated into CampaignResult)
        self._shared_runs = 0
        self._total_runs = 0

    # -- campaign loop -----------------------------------------------------------

    def run(
        self,
        generator: ProgramGenerator,
        progress: object = None,
        store: object = None,
    ) -> CampaignResult:
        """Run one approach's full campaign (Figure 1's outer loop).

        ``progress``, if given, is called as ``progress(i, outcome)`` after
        each program, in index order.  One loop serves every
        configuration: it generates each owned program, queues it, and
        finishes the queue in index order (test or replay, observe,
        checkpoint, report).  On the ``process`` backend with more than
        one job, a feedback-free campaign without islands hands all but
        every ``jobs``-th fresh program to ``jobs - 1`` pool workers and
        queues up to ``2 * jobs`` programs, so ``observe`` lags
        generation; everywhere else program *i* is observed before *i+1*
        is generated (the feedback loop is a sequential dependency).

        ``store``, if given, is a
        :class:`~repro.difftest.store.CampaignStore`: completed programs
        already checkpointed there are *replayed* — the generate stage
        still runs (restoring generator and feedback state), but the
        matrix is served from the stored outcome — and freshly tested
        programs are appended, so an interrupted campaign resumes from
        the last completed program bit-identically.

        When the engine is classically sharded (``shard_count > 1``,
        ``islands == 0``) only owned budget indices are tested; generation
        still covers every index so all shards see the identical program
        stream.  Classically sharding a feedback generator is rejected:
        its stream depends on verdicts other shards would compute — use
        the island model (``islands == shard_count``), which partitions
        generation itself so feedback stays island-local.
        """
        config = self.config
        ec = self.engine_config
        caps = generator_capabilities(generator)
        if ec.shard_count > 1 and caps.feedback and not ec.islands:
            raise ValueError(
                "cannot shard a feedback generator classically: program i+1 "
                "depends on verdicts for earlier programs, which other shards "
                "compute; run it as an island campaign (--islands "
                f"{ec.shard_count}) or use shard_count=1"
            )
        if ec.islands and ec.shard_count > 1 and store is None:
            raise ValueError(
                "sharded island campaigns need a checkpoint store: islands "
                "exchange migrants through sibling shards' checkpoint files"
            )
        result = CampaignResult(
            approach=getattr(generator, "name", type(generator).__name__),
            budget=config.budget,
            levels=config.levels,
            compilers=tuple(c.name for c in self.compilers),
            shard_index=ec.shard_index,
            shard_count=ec.shard_count,
            tiers=self.tiers,
        )
        done: dict[int, ProgramOutcome] = {}
        if store is not None:
            done = store.open(self._store_header(result))
        coordinator: IslandCoordinator | None = None
        if ec.islands:
            coordinator = IslandCoordinator(
                generator,
                islands=ec.islands,
                merge_every=ec.merge_every,
                seed=config.seed,
                shard_index=ec.shard_index,
                shard_count=ec.shard_count,
                peer_paths=ec.island_peers,
                existing_records=(
                    store.island_records if store is not None else ()
                ),
            )
        sw = Stopwatch()
        # Snapshot lifetime counters so a reused engine (prior
        # test_program calls) reports per-run deltas, not totals.
        runs_before = (self._shared_runs, self._total_runs)
        # Only a feedback-free, island-free campaign may generate ahead of
        # observe; lookahead 0 finishes each program before the next.
        fan_out = ec.backend == "process" and not caps.feedback and coordinator is None
        jobs = ec.resolved_jobs if fan_out else 1
        lookahead = 2 * jobs if jobs > 1 else 0
        # (index, program, entry): entry is the replayed outcome, a
        # worker's Future, or None for a program tested here.
        pending: deque = deque()
        fresh = 0

        def finish(
            index: int,
            program: GeneratedProgram,
            entry: ProgramOutcome | Future | None,
        ) -> None:
            if entry is None:
                outcome = self.test_program(index, program, _sw=sw)
            elif isinstance(entry, Future):
                outcome, buckets, (shared, total) = entry.result()
                for phase, seconds in buckets.items():
                    sw.charge(phase, seconds)
                self._shared_runs += shared
                self._total_runs += total
            else:
                outcome = entry
            if coordinator is None:
                generator.observe(outcome)
                island_records: list[dict] = []
            else:
                island_records = coordinator.observe(index, outcome)
            if store is not None:
                if outcome is not entry:
                    store.append(outcome)
                # After the boundary outcome is durable, never before:
                # a sibling island polling this file must not see the
                # export ahead of the outcomes that produced it.
                for record in island_records:
                    store.append_island(record)
            if coordinator is not None:
                coordinator.complete_boundary(index)
            result.outcomes.append(outcome)
            if progress is not None:
                progress(index, outcome)

        pool = (
            ProcessPoolExecutor(jobs - 1, initializer=_adopt_engine, initargs=(self,))
            if jobs > 1
            else nullcontext()
        )
        with pool:
            for i in range(config.budget):
                # Classic mode: every shard replays the whole stream.  Island
                # mode: unowned indices belong to another shard's island and
                # are not generated here at all.
                if coordinator is None:
                    with sw.phase("generate"):
                        program = generator.generate()
                if not ec.owns(i):
                    continue
                if coordinator is not None:
                    with sw.phase("generate"):
                        program = coordinator.generate(i)
                entry = done.get(i)
                if entry is not None:
                    _check_replay(i, entry, program)
                else:
                    if fresh % jobs:
                        entry = pool.submit(_test_in_worker, i, program)
                    fresh += 1
                pending.append((i, program, entry))
                while pending:
                    head = pending[0][2]
                    ready = isinstance(head, ProgramOutcome) or (
                        isinstance(head, Future) and head.done()
                    )
                    if not ready and len(pending) < lookahead:
                        break
                    finish(*pending.popleft())
            while pending:
                finish(*pending.popleft())
        self._charge(result, sw, generator, runs_before)
        return result

    def _store_header(self, result: CampaignResult) -> dict:
        """Identity of this campaign for checkpoint validation."""
        header = {
            "approach": result.approach,
            "budget": result.budget,
            "levels": [str(level) for level in result.levels],
            "compilers": list(result.compilers),
            "seed": self.config.seed,
            "max_steps": self.config.max_steps,
            "shard_index": self.engine_config.shard_index,
            "shard_count": self.engine_config.shard_count,
            # 0/0 when the island model is off, matching what pre-v4
            # headers imply — so old checkpoints resume cleanly.
            "islands": self.engine_config.islands,
            "merge_every": (
                self.engine_config.merge_every if self.engine_config.islands else 0
            ),
        }
        # Written only when non-default, like the island fields' 0/0
        # convention: baseline headers stay byte-identical to pre-tier
        # checkpoints, which therefore resume cleanly.
        if self.tiers != "baseline":
            header["tiers"] = self.tiers
        return header

    def _charge(
        self,
        result: CampaignResult,
        sw: Stopwatch,
        generator: ProgramGenerator,
        runs_before: tuple[int, int],
    ) -> None:
        result.generation_seconds = sw.buckets.get("generate", 0.0)
        result.frontend_seconds = sw.buckets.get("frontend", 0.0)
        result.compile_seconds = sw.buckets.get("compile", 0.0)
        result.execute_seconds = sw.buckets.get("execute", 0.0)
        result.compare_seconds = sw.buckets.get("compare", 0.0)
        result.shared_runs = self._shared_runs - runs_before[0]
        result.total_runs = self._total_runs - runs_before[1]
        llm = getattr(generator, "llm", None)
        if llm is not None:
            result.llm_latency_seconds = getattr(
                llm, "simulated_latency_seconds", 0.0
            )

    # -- one program -------------------------------------------------------------

    def test_program(
        self,
        index: int,
        program: GeneratedProgram,
        _sw: Stopwatch | None = None,
    ) -> ProgramOutcome:
        """Run one program through frontend/compile/execute/compare."""
        sw = _sw if _sw is not None else Stopwatch()
        outcome = ProgramOutcome(index=index, program=program)
        with sw.phase("frontend"):
            frontend = frontend_kernels(program.source)
        with sw.phase("compile"):
            compiles = self._compile_stage(frontend)
        with sw.phase("execute"):
            self._execute_stage(compiles, program.inputs)
        with sw.phase("compare"):
            self._compare_stage(index, compiles, outcome)
            outcome.triggered = any(not c.consistent for c in outcome.comparisons)
        return outcome

    # -- compile stage -----------------------------------------------------------

    def _compile_stage(self, frontend: FrontendRecord) -> list[CompileRecord]:
        """Compile the full (compiler, level) matrix.

        Returns records in matrix order (compilers outer, levels inner).
        Every cell compiles in the calling thread, through one pass memo
        for the program, so each distinct pass runs once per input kernel
        across levels and compilers: levels with equal
        ``Compiler.cache_token`` get the same optimized kernel object
        without running a pass.
        """
        memo: dict = {}
        records: list[CompileRecord] = []
        for compiler in self.compilers:
            kernel = frontend.kernels.get(compiler.kind)
            for level in self.config.levels:
                record = CompileRecord(compiler=compiler.name, level=level, ok=False)
                records.append(record)
                if kernel is None:
                    record.error = frontend.errors.get(
                        compiler.kind, "front-end failure"
                    )
                    continue
                try:
                    record.binary = compiler.compile_kernel(kernel, level, memo)
                    record.ok = True
                except CompileError as e:
                    record.error = str(e)
        return records

    # -- execute stage -----------------------------------------------------------

    def _execute_stage(self, compiles: list[CompileRecord], inputs: tuple) -> None:
        """Run every compiled binary, sharing one execution per kernel object.

        Two binaries holding the same optimized kernel object under equal
        FP environments are the same machine program — one run serves all
        their cells (bit-identical by the worker's purity guarantee).
        The pass memo gives every level of a class, and every compiler
        that ran the same passes on the same input, one kernel object.
        Content-equal kernels built as different objects run separately;
        content keys serve only the compare stage's tier tagging.

        Each distinct group becomes one
        :data:`~repro.execution.worker.KernelTask` carrying the engine's
        exec mode, run inline through :data:`_INLINE`, in task order; its
        result is written onto every record of the group.
        """
        max_steps = self.config.max_steps
        groups: dict[tuple, list[CompileRecord]] = {}
        for record in compiles:
            if record.ok:
                key = (id(record.binary.kernel), env_fingerprint(record.binary.env))
                groups.setdefault(key, []).append(record)

        ordered = list(groups.values())
        self._total_runs += sum(len(members) for members in ordered)
        self._shared_runs += sum(len(members) - 1 for members in ordered)

        mode = self.engine_config.exec_mode
        tasks = [
            (members[0].binary.kernel, members[0].binary.env, inputs, max_steps, mode)
            for members in ordered
        ]
        for members, result in zip(ordered, _INLINE.run_batches(tasks)):
            for record in members:
                record.result = result

    # -- compare stage -----------------------------------------------------------

    def _compare_stage(
        self,
        index: int,
        compiles: list[CompileRecord],
        outcome: ProgramOutcome,
    ) -> None:
        """Fill the outcome's per-binary dicts in matrix order, then compare
        every compiler pair at each level by those signatures."""
        cells: dict[str, CompileRecord] = {}
        for record in compiles:
            label = record.label
            outcome.compiled[label] = record.ok
            if not record.ok:
                continue
            result = record.result
            outcome.ran[label] = result.ok
            if result.ok:
                outcome.signatures[label] = result.signature()
                outcome.values[label] = result.value
                cells[label] = record
        signatures = outcome.signatures
        # Tier evidence memo for this program: sibling levels share the
        # optimized kernel object, so each kernel's evidence is computed
        # at most once (see repro.tiers.structural_tag).
        memo: dict = {}
        for level in self.config.levels:
            for ca, cb in combinations(self.compilers, 2):
                a, b = f"{ca.name}/{level}", f"{cb.name}/{level}"
                if a not in cells or b not in cells:
                    continue  # not comparable; still in the denominator
                if signatures[a] == signatures[b]:
                    outcome.comparisons.append(
                        ComparisonRecord(index, ca.name, cb.name, level, True)
                    )
                    continue
                ra, rb = cells[a], cells[b]
                va, vb = _differing_values(ra.result, rb.result)
                ba, bb = ra.binary, rb.binary
                outcome.comparisons.append(
                    ComparisonRecord(
                        index,
                        ca.name,
                        cb.name,
                        level,
                        False,
                        value_a=va,
                        value_b=vb,
                        digit_diff=_diffing_digits(va, vb),
                        tag=structural_tag(ba.kernel, ba.env, bb.kernel, bb.env, memo),
                    )
                )


#: Where every process's execute stage dispatches its kernel runs.
_INLINE = SerialBackend()

#: The engine a pool worker tests programs with (set by its initializer).
_worker_engine: CampaignEngine | None = None


def _adopt_engine(engine: CampaignEngine) -> None:
    """Pool initializer: keep the parent's engine for this worker, and exit
    when the parent dies.  A SIGKILLed parent never shuts its pool down,
    and its idle workers would otherwise live on, reparented to init."""
    global _worker_engine
    _worker_engine = engine
    threading.Thread(
        target=_exit_after, args=(multiprocessing.parent_process(),), daemon=True
    ).start()


def _exit_after(parent: multiprocessing.process.BaseProcess) -> None:
    parent.join()  # returns once the parent's sentinel pipe closes
    os._exit(1)


def _test_in_worker(
    index: int, program: GeneratedProgram
) -> tuple[ProgramOutcome, dict[str, float], tuple[int, int]]:
    """Test one program in a pool worker: its outcome, stage seconds and
    ``(shared_runs, total_runs)`` deltas."""
    engine = _worker_engine
    sw = Stopwatch()
    shared, total = engine._shared_runs, engine._total_runs
    outcome = engine.test_program(index, program, _sw=sw)
    return (
        outcome,
        sw.buckets,
        (engine._shared_runs - shared, engine._total_runs - total),
    )


def _differing_values(
    ra: ExecutionResult, rb: ExecutionResult
) -> tuple[float | None, float | None]:
    """The first printed pair whose encodings differ (fallback: finals).

    The fallback can surface ``None`` finals — e.g. one run printed
    nothing while the other printed values — which downstream code must
    treat as a sentinel, not a number.
    """
    for a, b in zip(ra.printed, rb.printed):
        if _value_hex(a) != _value_hex(b):
            return a, b
    return ra.value, rb.value  # different print counts: compare finals


def _diffing_digits(a: float | None, b: float | None) -> int:
    """Differing hex digits; 0 when either side has no final value (the
    sentinel comparison for runs that differ only in print count)."""
    if a is None or b is None:
        return 0
    return digit_difference(_value_hex(a), _value_hex(b))
