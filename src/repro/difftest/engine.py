"""The staged campaign engine (paper Figure 1, decomposed).

The original :func:`~repro.difftest.harness.run_campaign` was one
monolithic loop: generate a program, then serially compile and run every
(compiler, level) pair from scratch.  This module splits that loop into
five explicit stages with typed per-stage records and makes the
compile+execute matrix — the embarrassingly parallel middle of the loop —
deduplicated and concurrently schedulable:

* **generate** — ask the generator for the next program.  Stays serial:
  the feedback loop (triggering programs re-seed the generator) makes
  program *i+1* depend on the verdict for program *i*.
* **frontend** — parse / sema / lower once per target kind
  (:class:`~repro.toolchains.base.CompilerKind`); host compilers share the
  C parse, the device compiler gets the CUDA translation.
* **compile** — one :class:`CompileRecord` per (compiler, level).  Levels
  whose (pipeline, environment) coincide share one compilation
  (``Compiler.cache_token``).
* **execute** — one :class:`ExecuteRecord` per compiled binary.  Binaries
  whose optimized kernel and FP environment are content-identical produce
  bit-identical results (the interpreter is deterministic), so each
  distinct (kernel, environment) group runs once and the result is shared
  across its labels.
* **compare** — pairwise bitwise comparison at each level, unchanged
  semantics.  Structural tier evidence (devectorized fingerprints, tier
  shapes) is computed lazily, only for the inconsistent pairs whose
  scalar environments are equal and whose devectorized kernels match —
  the only pairs that can carry a tag.

Distinct compile and execute units fan out to an
:class:`~repro.difftest.backend.ExecutionBackend` — ``serial`` (inline),
``thread`` (GIL-bound scheduling slack), or ``process`` (true multi-core:
execute tasks ship to a :class:`~concurrent.futures.ProcessPoolExecutor`
as picklable specs through the pure ``execution/batch`` entry point).
Results are gathered in matrix order and every record dict is filled in
the same deterministic order as the serial loop, so a
:class:`CampaignResult` is byte-identical across backends and job counts
— only the stage timings differ.

Two campaign-scale facilities ride on that determinism:

* **resume** — give :meth:`CampaignEngine.run` a
  :class:`~repro.difftest.store.CampaignStore` and every completed
  program is checkpointed to JSONL; an interrupted campaign replays the
  cheap generate stage (restoring the generator's feedback state from the
  stored verdicts) and recomputes only unfinished programs.
* **sharding** — ``shard i/n`` deterministically partitions the budget by
  ``index % n`` so n machines produce disjoint shards whose
  :func:`~repro.difftest.store.merge_shards` union is bit-identical to
  an unsharded run.  Feedback generators shard as islands
  (``EngineConfig.islands``), which partition generation itself.

Note on throughput: with the ``thread`` backend the measured gains come
from the in-program *dedup* — level-class compilation sharing and
identical-binary run sharing — because the stages are pure Python and
CPython's GIL serializes thread workers.  The ``process`` backend adds
real CPU parallelism on top for the execute stage.  Nothing is cached
across programs: every compiled binary and tape dies with its program.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations

from repro.difftest.backend import (
    BACKENDS,
    ExecutionBackend,
    create_backend,
    resolve_jobs,
)
from repro.difftest.compare import digit_difference
from repro.difftest.config import CampaignConfig
from repro.difftest.record import CampaignResult, ComparisonRecord, ProgramOutcome
from repro.errors import CompileError, ReproError
from repro.execution.batch import DEFAULT_EXEC_MODE, EXEC_MODES, run_batch_task
from repro.execution.result import ExecutionResult, _value_hex
from repro.fp.env import FPEnvironment
from repro.frontend.parser import parse_program
from repro.frontend.sema import check_program
from repro.generation.islands import IslandCoordinator
from repro.generation.program import (
    GeneratedProgram,
    ProgramGenerator,
    generator_capabilities,
    observe_outcome,
)
from repro.ir import nodes as ir
from repro.ir.lower import lower_compute
from repro.tiers import structural_tag
from repro.toolchains.base import Binary, Compiler, CompilerKind, _flags_or
from repro.toolchains.cache import env_fingerprint, kernel_fingerprint
from repro.toolchains.cuda import translate_to_cuda
from repro.toolchains.optlevels import OptLevel
from repro.utils.timing import Stopwatch

__all__ = [
    "EngineConfig",
    "FrontendRecord",
    "CompileRecord",
    "ExecuteRecord",
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
        jobs: workers fanning out the per-program compile+execute matrix;
            ``1`` runs every stage inline, ``"auto"`` uses one worker per
            CPU.  What a worker *is* depends on ``backend``.
        share_runs: deduplicate work *within* one program's matrix — levels
            with identical pipelines compile once, and binaries with
            content-identical (optimized kernel, environment) execute once.
            Disabling it reproduces the legacy serial cost model exactly
            (used as the benchmark baseline).
        backend: fan-out policy — ``"serial"`` (inline, requires jobs=1),
            ``"thread"`` (GIL-bound thread pool, the historical behaviour)
            or ``"process"`` (multi-core process pool for the execute
            stage).  Results are byte-identical across all three.
        shard_index / shard_count: run only budget indices where
            ``index % shard_count == shard_index``; disjoint shards merge
            to the unsharded result (:func:`repro.difftest.store.merge_shards`).
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
            (compiled register-machine tapes, the default), ``"tree"``
            (the reference tree-walk interpreter) or ``"check"`` (both,
            raising :class:`~repro.errors.ExecutionDivergence` on any bit
            of disagreement).  All three produce byte-identical campaign
            results; ``REPRO_EXEC_MODE`` overrides the default.
    """

    jobs: int | str = 1
    share_runs: bool = True
    backend: str = "thread"
    shard_index: int = 0
    shard_count: int = 1
    islands: int = 0
    merge_every: int = 25
    island_peers: tuple = ()
    exec_mode: str = field(
        default_factory=lambda: os.environ.get("REPRO_EXEC_MODE", DEFAULT_EXEC_MODE)
    )

    def __post_init__(self) -> None:
        resolve_jobs(self.jobs)  # validates int >= 1 or "auto"
        if self.exec_mode not in EXEC_MODES:
            raise ValueError(
                f"exec_mode must be one of {', '.join(EXEC_MODES)}, "
                f"got {self.exec_mode!r}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.backend == "serial" and resolve_jobs(self.jobs) != 1:
            raise ValueError("the serial backend runs inline; use jobs=1")
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
    """One (compiler, level) cell of the compile stage."""

    compiler: str
    level: OptLevel
    ok: bool
    binary: Binary | None = None
    shared: bool = False  # reused a sibling level's compilation
    error: str | None = None

    @property
    def label(self) -> str:
        return f"{self.compiler}/{self.level}"


@dataclass
class ExecuteRecord:
    """One binary's execution, possibly shared across identical binaries."""

    label: str
    result: ExecutionResult
    shared: bool = False  # served by another label's identical run


@dataclass
class _BinaryRun:
    """Signature + values of one successful execution (compare-stage view)."""

    signature: str | None
    value: float | None
    printed: tuple[float, ...] = ()
    #: the optimized kernel and its environment; the compare stage
    #: extracts tier evidence from them only for inconsistent pairs
    #: (:func:`repro.tiers.structural_tag`)
    kernel: ir.Kernel | None = None
    env: FPEnvironment | None = None


def frontend_kernels(source: str) -> FrontendRecord:
    """Front-end ``source`` once per target kind (§2.4).

    Host compilers share the C parse/sema/lowering; the device compiler
    gets the CUDA translation of the same unit.  A front-end failure for a
    kind fails all its compilations, recorded per-kind in ``errors``.
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
        profiles = {getattr(c, "tiers", "baseline") for c in self.compilers}
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
        each program.  Generation stays serial (the feedback loop is a
        sequential dependency); each program's matrix fans out through the
        configured :class:`~repro.difftest.backend.ExecutionBackend`.

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
        with create_backend(ec.backend, ec.jobs) as backend:
            for i in range(config.budget):
                if coordinator is None:
                    # Classic mode: every shard replays the whole stream.
                    with sw.phase("generate"):
                        program = generator.generate()
                    if not ec.owns(i):
                        continue
                elif not ec.owns(i):
                    # Island mode: unowned indices belong to another
                    # shard's island — not generated here at all.
                    continue
                else:
                    with sw.phase("generate"):
                        program = coordinator.generate(i)
                prior = done.get(i)
                if prior is not None:
                    _check_replay(i, prior, program)
                    outcome = prior
                else:
                    outcome = self.test_program(
                        i, program, _sw=sw, _backend=backend
                    )
                if coordinator is None:
                    observe_outcome(generator, outcome)
                    island_records: list[dict] = []
                else:
                    island_records = coordinator.observe(i, outcome)
                if prior is None and store is not None:
                    store.append(outcome)
                if store is not None:
                    # After the boundary outcome is durable, never before:
                    # a sibling island polling this file must not see the
                    # export ahead of the outcomes that produced it.
                    for record in island_records:
                        store.append_island(record)
                if coordinator is not None:
                    coordinator.complete_boundary(i)
                result.outcomes.append(outcome)
                if progress is not None:
                    progress(i, outcome)
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
        _backend: ExecutionBackend | None = None,
    ) -> ProgramOutcome:
        """Run one program through frontend/compile/execute/compare."""
        sw = _sw if _sw is not None else Stopwatch()
        outcome = ProgramOutcome(index=index, program=program)
        with sw.phase("frontend"):
            frontend = self._frontend_stage(program.source)
        with sw.phase("compile"):
            compiles = self._compile_stage(frontend, _backend)
        with sw.phase("execute"):
            executions = self._execute_stage(compiles, program.inputs, _backend)
        with sw.phase("compare"):
            runs = self._collect(compiles, executions, outcome)
            self._compare_stage(index, runs, outcome)
            outcome.triggered = any(not c.consistent for c in outcome.comparisons)
        return outcome

    # -- frontend stage ----------------------------------------------------------

    def _frontend_stage(self, source: str) -> FrontendRecord:
        return frontend_kernels(source)

    # -- compile stage -----------------------------------------------------------

    def _compile_stage(
        self, frontend: FrontendRecord, backend: ExecutionBackend | None
    ) -> list[CompileRecord]:
        """Compile the full (compiler, level) matrix, deduplicated.

        Returns records in matrix order (compilers outer, levels inner).
        Each (compiler, cache-token) equivalence class compiles at most
        once; follower levels rebind the leader's binary to their own
        level metadata.  Distinct leader compilations fan out through the
        backend's in-process scheduler.
        """
        share = self.engine_config.share_runs
        records: list[CompileRecord] = []
        leaders: dict[tuple[str, str], CompileRecord] = {}
        followers: list[tuple[CompileRecord, CompileRecord, Compiler]] = []
        units: list[tuple[CompileRecord, Compiler, ir.Kernel]] = []
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
                token = compiler.cache_token(level) if share else str(level)
                unit_key = (compiler.name, token)
                leader = leaders.get(unit_key)
                if leader is not None:
                    record.shared = True
                    followers.append((record, leader, compiler))
                    continue
                leaders[unit_key] = record
                units.append((record, compiler, kernel))

        def compile_unit(unit: tuple[CompileRecord, Compiler, ir.Kernel]) -> None:
            record, compiler, kernel = unit
            try:
                record.binary = compiler.compile_kernel(kernel, record.level)
                record.ok = True
            except CompileError as e:
                record.error = str(e)

        if backend is not None and len(units) > 1:
            backend.map_inline(compile_unit, units)
        else:
            for unit in units:
                compile_unit(unit)

        for record, leader, compiler in followers:
            record.error = leader.error
            if not leader.ok:
                continue
            record.ok = True
            record.binary = self._rebind(compiler, leader.binary, record.level)
        return records

    @staticmethod
    def _rebind(compiler: Compiler, binary: Binary, level: OptLevel) -> Binary:
        """A sibling level's binary with this level's metadata attached."""
        if binary.level is level:
            return binary
        return replace(
            binary, level=level, flags=_flags_or(compiler.name, level, binary.flags)
        )

    # -- execute stage -----------------------------------------------------------

    def _execute_stage(
        self,
        compiles: list[CompileRecord],
        inputs: tuple,
        backend: ExecutionBackend | None,
    ) -> dict[str, ExecuteRecord]:
        """Run every compiled binary, sharing content-identical executions.

        Two binaries whose optimized kernel and FP environment are
        content-equal are observationally the same machine program — one
        interpreter run serves all their labels (bit-identical by the
        worker's purity guarantee).  Grouping spans compilers: gcc and
        clang frequently converge to the same optimized kernel on
        fold-free programs.

        Each distinct group becomes one picklable
        :data:`~repro.execution.batch.BatchTask` carrying the engine's
        exec mode; the backend decides whether those run inline, on
        threads, or across processes, and always returns results in task
        order.
        """
        share = self.engine_config.share_runs
        max_steps = self.config.max_steps
        groups: dict[object, list[CompileRecord]] = {}
        kernel_fps: dict[int, str] = {}
        for record in compiles:
            if not record.ok:
                continue
            if share:
                kid = id(record.binary.kernel)
                fp = kernel_fps.get(kid)
                if fp is None:
                    fp = kernel_fingerprint(record.binary.kernel)
                    kernel_fps[kid] = fp
                key: object = (fp, env_fingerprint(record.binary.env))
            else:
                key = record.label
            groups.setdefault(key, []).append(record)

        ordered = list(groups.values())
        self._total_runs += sum(len(members) for members in ordered)
        self._shared_runs += sum(len(members) - 1 for members in ordered)

        mode = self.engine_config.exec_mode
        tasks = [
            (members[0].binary.kernel, members[0].binary.env, (inputs,), max_steps, mode)
            for members in ordered
        ]
        if backend is not None and len(tasks) > 1:
            batches = backend.run_batches(tasks)
        else:
            batches = [run_batch_task(task) for task in tasks]

        executions: dict[str, ExecuteRecord] = {}
        for members, (result,) in zip(ordered, batches):
            for pos, record in enumerate(members):
                executions[record.label] = ExecuteRecord(
                    label=record.label, result=result, shared=pos > 0
                )
        return executions

    # -- collect + compare stages ------------------------------------------------

    def _collect(
        self,
        compiles: list[CompileRecord],
        executions: dict[str, ExecuteRecord],
        outcome: ProgramOutcome,
    ) -> dict[tuple[str, OptLevel], _BinaryRun]:
        """Fill the outcome's per-binary dicts in legacy matrix order.

        Records each successful run's kernel and environment by
        reference; no tier evidence is extracted here.
        """
        runs: dict[tuple[str, OptLevel], _BinaryRun] = {}
        for record in compiles:
            label = record.label
            outcome.compiled[label] = record.ok
            if not record.ok:
                continue
            result = executions[label].result
            outcome.ran[label] = result.ok
            if result.ok:
                sig = result.signature()
                runs[(record.compiler, record.level)] = _BinaryRun(
                    sig,
                    result.value,
                    result.printed,
                    kernel=record.binary.kernel,
                    env=record.binary.env,
                )
                if sig is not None:
                    outcome.signatures[label] = sig
                    outcome.values[label] = result.value
        return runs

    def _compare_stage(
        self,
        index: int,
        runs: dict[tuple[str, OptLevel], _BinaryRun],
        outcome: ProgramOutcome,
    ) -> None:
        # Tier evidence memo for this program: sibling levels share the
        # optimized kernel object, so each kernel's evidence is computed
        # at most once (see repro.tiers.structural_tag).
        memo: dict = {}
        for level in self.config.levels:
            for ca, cb in combinations(self.compilers, 2):
                ra = runs.get((ca.name, level))
                rb = runs.get((cb.name, level))
                if ra is None or rb is None or ra.signature is None or rb.signature is None:
                    continue  # not comparable; still in the denominator
                consistent = ra.signature == rb.signature
                if consistent:
                    outcome.comparisons.append(
                        ComparisonRecord(index, ca.name, cb.name, level, True)
                    )
                    continue
                va, vb = _differing_values(ra, rb)
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
                        tag=structural_tag(ra.kernel, ra.env, rb.kernel, rb.env, memo),
                    )
                )


def _differing_values(
    ra: _BinaryRun, rb: _BinaryRun
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
