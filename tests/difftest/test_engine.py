"""The staged campaign engine: determinism, sharing, stages, backends,
sharding."""

import copy
import multiprocessing

import pytest

from repro.cli import main as cli_main
from repro.difftest.backend import (
    BackendError,
    ExecutionBackend,
    ProcessBackend,
    check_backend,
    resolve_jobs,
)
from repro.difftest.config import CampaignConfig
from repro.difftest.engine import (
    CampaignEngine,
    CompileRecord,
    EngineConfig,
    _differing_values,
    _diffing_digits,
    frontend_kernels,
)
from repro.difftest.store import (
    CampaignStore,
    CampaignStoreError,
    load_result,
    merge_shard_stores,
)
from repro.experiments.approaches import make_generator
from repro.experiments.settings import ExperimentSettings
from repro.fleet.supervisor import CampaignSpec
from repro.errors import ReproError
from repro.execution.result import ExecStatus, ExecutionResult
from repro.fp.bits import double_to_hex
from repro.generation.program import GeneratedProgram, GeneratorCapabilities
from repro.toolchains import (
    ClangCompiler,
    GccCompiler,
    NvccCompiler,
    default_compilers,
    env_fingerprint,
    kernel_fingerprint,
)
from repro.utils.rng import SplittableRng

TRANSCENDENTAL = """
#include <stdio.h>
#include <math.h>
void compute(double a, double b, int n) {
  double comp = 0.0;
  for (int i = 0; i < n; ++i) {
    comp += sin(a + i) * b;
  }
  printf("%.17g\\n", comp);
}
int main(int argc, char **argv) {
  compute(atof(argv[1]), atof(argv[2]), atoi(argv[3]));
  return 0;
}
"""


def _hex(v):
    return None if v is None else double_to_hex(v)


def result_key(result):
    """Everything observable in a CampaignResult, NaN-safe (bitwise)."""
    return [
        (
            o.index,
            o.program.source,
            o.compiled,
            o.ran,
            o.signatures,
            {k: _hex(v) for k, v in o.values.items()},
            [
                (
                    c.program_index,
                    c.compiler_a,
                    c.compiler_b,
                    c.level,
                    c.consistent,
                    _hex(c.value_a),
                    _hex(c.value_b),
                    c.digit_diff,
                    c.tag,
                )
                for c in o.comparisons
            ],
            o.triggered,
        )
        for o in result.outcomes
    ]


def run_with(engine_config, approach="varity", budget=8, seed=123, store=None):
    rng = SplittableRng(seed, f"engine-{approach}")
    generator = make_generator(approach, rng)
    compilers = [GccCompiler(), ClangCompiler(), NvccCompiler()]
    engine = CampaignEngine(
        compilers, CampaignConfig(budget=budget), engine_config
    )
    return engine.run(generator, store=store)


class TestDeterminism:
    """The acceptance property: results are byte-identical across job
    counts and equal the memo-free, one-run-per-cell reference; only
    timings may differ."""

    def test_jobs_1_vs_4_identical(self):
        serial = run_with(EngineConfig(jobs=1))
        parallel = run_with(EngineConfig(backend="process", jobs=4))
        assert result_key(serial) == result_key(parallel)

    @pytest.mark.parametrize(
        "engine_config",
        [EngineConfig(jobs=1), EngineConfig(backend="process", jobs=2)],
        ids=["serial", "process"],
    )
    def test_cells_match_the_memo_free_reference(self, engine_config):
        """Every cell's signature equals a memo-free compile of that cell
        run alone: the pass memo and run sharing change no result.
        On ``loops``, O3 and O3_fastmath often share a kernel object
        under different libms, so a group key that dropped the
        environment would show."""
        result = run_with(engine_config, approach="loops")
        compilers = [GccCompiler(), ClangCompiler(), NvccCompiler()]
        checked = 0
        for outcome in result.outcomes:
            kernels = frontend_kernels(outcome.program.source).kernels
            for compiler in compilers:
                for level in CampaignConfig().levels:
                    label = f"{compiler.name}/{level}"
                    if not outcome.compiled[label]:
                        continue
                    binary = compiler.compile_kernel(kernels[compiler.kind], level)
                    alone = binary.run(outcome.program.inputs)
                    assert outcome.signatures.get(label) == alone.signature()
                    checked += 1
        assert checked == sum(sum(o.compiled.values()) for o in result.outcomes) > 0


class TestBackendEquivalence:
    """The tentpole property: the serial and process backends produce
    byte-for-byte identical campaigns; only wall-clock differs."""

    def test_serial_process_identical(self):
        serial = run_with(EngineConfig(backend="serial", jobs=1), budget=6)
        process = run_with(EngineConfig(backend="process", jobs=2), budget=6)
        assert result_key(serial) == result_key(process)

    def test_vector_lanes_identical_across_backends(self):
        """Vector execution is deterministic lane math: a loops campaign
        (reduction kernels exercising the vectorization tier, including
        the vector-reduction tags) is byte-identical on every backend."""
        serial = run_with(
            EngineConfig(backend="serial", jobs=1), approach="loops", budget=8
        )
        process = run_with(
            EngineConfig(backend="process", jobs=2), approach="loops", budget=8
        )
        assert result_key(serial) == result_key(process)
        tags = [
            c.tag
            for o in serial.outcomes
            for c in o.comparisons
            if not c.consistent and c.tag
        ]
        assert "vector-reduction" in tags  # the tier actually fired

    def test_masked_lanes_identical_across_backends(self):
        """Masked (if-converted) lane math is just as deterministic: a
        guarded-loops workload — conditional bodies the hosts if-convert
        at O3 and nvcc predicates everywhere — produces byte-identical
        campaigns on every backend, masked-lane tags included."""
        serial = run_with(
            EngineConfig(backend="serial", jobs=1), approach="loops", budget=10
        )
        process = run_with(
            EngineConfig(backend="process", jobs=2), approach="loops", budget=10
        )
        assert result_key(serial) == result_key(process)
        patterns = [o.program.meta.get("pattern", "") for o in serial.outcomes]
        assert any("guarded" in p for p in patterns)  # workload is guarded
        tags = [
            c.tag
            for o in serial.outcomes
            for c in o.comparisons
            if not c.consistent and c.tag
        ]
        assert "masked-lane" in tags  # the masked tier actually fired

    def test_process_with_llm_approach_identical(self):
        serial = run_with(
            EngineConfig(backend="serial", jobs=1), approach="llm4fp", budget=5
        )
        process = run_with(
            EngineConfig(backend="process", jobs=2), approach="llm4fp", budget=5
        )
        assert result_key(serial) == result_key(process)

    def test_jobs_auto_resolves_to_cpu_count(self):
        import os

        assert resolve_jobs("auto") == (os.cpu_count() or 1)
        config = EngineConfig(backend="process", jobs="auto")
        assert config.resolved_jobs == (os.cpu_count() or 1)

    def test_backend_types(self):
        check_backend("serial", 1)
        check_backend("process", 2)
        process = ProcessBackend(2)
        assert process.jobs == 2
        # Kernels never cross a process boundary: the process policy
        # dispatches a program's kernel runs inline, like serial.
        assert ProcessBackend.run_batches is ExecutionBackend.run_batches
        assert process.run_batches([]) == []
        with pytest.raises(BackendError, match="unknown backend"):
            check_backend("fork-bomb", 2)
        with pytest.raises(BackendError, match="unknown backend"):
            check_backend("thread", 1)
        with pytest.raises(BackendError, match="serial backend"):
            check_backend("serial", 2)

    def test_backend_config_validation(self):
        with pytest.raises(BackendError, match="unknown backend"):
            EngineConfig(backend="greenlet")
        with pytest.raises(BackendError, match="unknown backend"):
            EngineConfig(backend="thread")
        with pytest.raises(BackendError, match="serial backend"):
            EngineConfig(backend="serial", jobs=4)
        with pytest.raises(ValueError, match="jobs"):
            EngineConfig(jobs="many")
        # the default backend is serial: more workers need it named
        for build in (
            lambda: EngineConfig(jobs=2),
            lambda: ExperimentSettings(jobs=2),
            lambda: CampaignSpec(jobs="2"),
        ):
            with pytest.raises(BackendError, match="--backend process"):
                build()


def _loops_checkpoint(path, budget=20, engine_type=CampaignEngine, **engine_kwargs):
    """A ``loops`` campaign at the CLI's default seed, checkpointed to
    ``path``: its result, its checkpoint bytes and its progress indices."""
    seed = 20250916
    engine = engine_type(
        default_compilers(),
        CampaignConfig(budget=budget, seed=seed),
        EngineConfig(**engine_kwargs),
    )
    indices = []
    result = engine.run(
        make_generator("loops", SplittableRng(seed, "cli-loops")),
        progress=lambda index, outcome: indices.append(index),
        store=CampaignStore(path),
    )
    return result, path.read_bytes(), indices


class _WorkerFault(ReproError):
    """Raised by :class:`_FaultyWorkerEngine` inside pool workers only."""


class _FaultyWorkerEngine(CampaignEngine):
    def test_program(self, index, program, _sw=None):
        if multiprocessing.parent_process() is not None:
            raise _WorkerFault(f"program {index} failed in a worker")
        return super().test_program(index, program, _sw=_sw)


class TestProgramFanOut:
    """``backend="process"`` with more than one job tests whole programs
    in a pool for feedback-free campaigns; checkpoints, progress and
    counters are exactly serial's."""

    PROCESS = dict(backend="process", jobs=2)

    def test_checkpoint_bytes_equal_serial(self, tmp_path):
        serial, serial_bytes, _ = _loops_checkpoint(tmp_path / "serial.jsonl")
        process, process_bytes, _ = _loops_checkpoint(
            tmp_path / "process.jsonl", **self.PROCESS
        )
        assert process_bytes == serial_bytes
        assert result_key(process) == result_key(serial)

    def test_resume_truncated_serial_checkpoint(self, tmp_path):
        _, serial_bytes, _ = _loops_checkpoint(tmp_path / "serial.jsonl")
        lines = serial_bytes.splitlines(keepends=True)
        resumed = tmp_path / "resumed.jsonl"
        # The header, seven outcomes and a torn eighth line.
        resumed.write_bytes(b"".join(lines[:8]) + lines[8][:40])
        _, resumed_bytes, indices = _loops_checkpoint(resumed, **self.PROCESS)
        assert resumed_bytes == serial_bytes
        assert indices == list(range(20))

    def test_shard_equals_serial_shard(self, tmp_path):
        shard = dict(shard_index=1, shard_count=2)
        serial, serial_bytes, _ = _loops_checkpoint(tmp_path / "serial.jsonl", **shard)
        process, process_bytes, indices = _loops_checkpoint(
            tmp_path / "process.jsonl", **shard, **self.PROCESS
        )
        assert process_bytes == serial_bytes
        assert result_key(process) == result_key(serial)
        assert indices == list(range(1, 20, 2))

    def test_progress_indices_strictly_increasing(self, tmp_path):
        _, _, indices = _loops_checkpoint(
            tmp_path / "process.jsonl", budget=12, backend="process", jobs=3
        )
        assert indices == list(range(12))

    def test_run_counters_equal_serial(self, tmp_path):
        serial, _, _ = _loops_checkpoint(tmp_path / "serial.jsonl")
        process, _, _ = _loops_checkpoint(tmp_path / "process.jsonl", **self.PROCESS)
        assert process.total_runs == serial.total_runs > 0
        assert process.shared_runs == serial.shared_runs > 0

    @pytest.mark.parametrize(
        "approach, islands, jobs",
        [("llm4fp", 0, 2), ("llm4fp", 2, 2), ("loops", 0, 1)],
        ids=["feedback", "islands", "single-job"],
    )
    def test_inline_campaigns_create_no_pool(self, monkeypatch, approach, islands, jobs):
        from repro.difftest import engine as engine_module

        def no_pool(*args, **kwargs):
            raise AssertionError("an inline campaign created a pool")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", no_pool)
        serial = run_with(EngineConfig(islands=islands), approach=approach, budget=4)
        process = run_with(
            EngineConfig(islands=islands, backend="process", jobs=jobs),
            approach=approach,
            budget=4,
        )
        assert result_key(process) == result_key(serial)

    def test_worker_exception_keeps_its_type(self, tmp_path):
        with pytest.raises(_WorkerFault, match="program 1 failed in a worker"):
            _loops_checkpoint(
                tmp_path / "process.jsonl",
                budget=6,
                engine_type=_FaultyWorkerEngine,
                **self.PROCESS,
            )


class _Recording:
    """Generator wrapper that logs its ``generate`` and ``observe`` calls
    in one log, shared by the copies an island campaign makes."""

    name = "recording"

    def __init__(self, inner, log, feedback):
        self.inner = inner
        self.log = log
        self.capabilities = GeneratorCapabilities(feedback=feedback, shardable=True)

    def __deepcopy__(self, memo):
        inner = copy.deepcopy(self.inner, memo)
        return _Recording(inner, self.log, self.capabilities.feedback)

    def bind(self, shard_index, shard_count, rng_seed):
        self.inner.bind(shard_index, shard_count, rng_seed)

    def generate(self):
        self.log.append("generate")
        return self.inner.generate()

    def observe(self, outcome):
        self.log.append("observe")
        self.inner.observe(outcome)


class TestGenerateObserveOrder:
    """Only a feedback-free campaign may generate ahead of ``observe``,
    and never by more than the ``2 * jobs`` programs the fan-out keeps."""

    BUDGET = 10

    def _log(self, feedback, **engine):
        log = []
        generator = _Recording(
            make_generator("loops", SplittableRng(5, "order")), log, feedback
        )
        CampaignEngine(
            [GccCompiler(), ClangCompiler()],
            CampaignConfig(budget=self.BUDGET),
            EngineConfig(**engine),
        ).run(generator)
        return log

    @pytest.mark.parametrize(
        "engine",
        [{}, dict(backend="process", jobs=2), dict(islands=2)],
        ids=["serial", "process", "islands"],
    )
    def test_feedback_calls_alternate(self, engine):
        log = self._log(True, **engine)
        assert log == ["generate", "observe"] * self.BUDGET

    def test_feedback_free_lookahead_is_bounded(self):
        jobs = 2
        outstanding = []
        for call in self._log(False, backend="process", jobs=jobs):
            previous = outstanding[-1] if outstanding else 0
            outstanding.append(previous + (1 if call == "generate" else -1))
        assert outstanding[-1] == 0
        # The parent's own first program waits for a full window.
        assert max(outstanding) == 2 * jobs


def _serve_queue(tmp_path):
    queue = tmp_path / "jobs.jsonl"
    queue.write_text('{"approach": "loops", "budget": 2, "jobs": 2}\n')
    return ["serve", "--dir", str(tmp_path / "fleet"), "--queue", str(queue)]


class TestBackendRefusal:
    """Two backends only, and the serial default takes one worker: every
    CLI surface refuses the rest with exit status 2 and a message, before
    any campaign work starts."""

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (lambda _: ["run", "--backend", "thread"], {}, "invalid choice"),
            (lambda _: ["run", "--jobs", "2"], {}, "--backend process"),
            (
                lambda _: ["triage", "--demo", "--backend", "process"],
                {},
                "unrecognized arguments",
            ),
            (lambda _: ["tables", "table2"], {"REPRO_JOBS": "2"}, "--backend process"),
            (_serve_queue, {}, "jobs.jsonl:1: the serial backend"),
            (
                lambda p: ["serve", "--dir", str(p / "fleet"), "--jobs", "2"],
                {},
                "--backend process",
            ),
        ],
        ids=[
            "run-thread", "run-jobs", "triage-backend", "tables-env",
            "serve-queue", "serve-jobs",
        ],
    )
    def test_cli_exits_2_with_message(
        self, tmp_path, monkeypatch, capsys, argv, env, message
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        try:
            code = cli_main(argv(tmp_path))
        except SystemExit as e:  # argparse refuses an invalid choice
            code = e.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fleet").exists()  # no worker ever spawned

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--budget", "0"], "--budget"),
            (["tables", "table2", "--budget", "0"], "--budget"),
            (["run", "--shard", "2/2"], "--shard"),
            (["run", "--islands", "2", "--merge-every", "0"], "--merge-every"),
            (["serve", "--shards", "0"], "--shards"),
            (["serve", "--budget", "0"], "--budget"),
            (["serve", "--workers", "0"], "--workers"),
        ],
        ids=[
            "run-budget", "tables-budget", "run-shard", "run-merge-every",
            "serve-shards", "serve-budget", "serve-workers",
        ],
    )
    def test_bad_numeric_flag_is_refused_by_name(self, tmp_path, capsys, argv, flag):
        if argv[0] == "serve":
            argv = [*argv, "--dir", str(tmp_path / "fleet")]
        with pytest.raises(SystemExit) as refused:
            cli_main(argv)
        assert refused.value.code == 2
        named = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith(f"llm4fp {argv[0]}: ")
        ]
        assert len(named) == 1 and f"argument {flag}: " in named[0]
        assert not (tmp_path / "fleet").exists()  # no worker ever spawned


def shard_stores(tmp_path, count, budget):
    """Run every shard of one campaign; return their checkpoint paths."""
    paths = [tmp_path / f"shard{i}.jsonl" for i in range(count)]
    for i, path in enumerate(paths):
        run_with(
            EngineConfig(shard_index=i, shard_count=count),
            budget=budget,
            store=CampaignStore(path),
        )
    return paths


class TestSharding:
    def test_shard_union_identical_to_unsharded(self, tmp_path):
        unsharded = run_with(EngineConfig(), budget=8)
        paths = shard_stores(tmp_path, 3, budget=8)
        # disjoint coverage: every index exactly once across shards
        shards = [load_result(p) for p in paths]
        indices = sorted(o.index for r in shards for o in r.outcomes)
        assert indices == list(range(8))
        merged = load_result(merge_shard_stores(paths, tmp_path / "merged.jsonl"))
        assert result_key(merged) == result_key(unsharded)
        assert merged.shard_count == 1 and merged.budget == 8

    def test_feedback_generator_rejected(self):
        with pytest.raises(ValueError, match="feedback"):
            run_with(
                EngineConfig(shard_index=0, shard_count=2),
                approach="llm4fp",
                budget=4,
            )

    def test_shard_config_validation(self):
        with pytest.raises(ValueError, match="shard_count"):
            EngineConfig(shard_count=0)
        with pytest.raises(ValueError, match="shard_index"):
            EngineConfig(shard_index=2, shard_count=2)
        with pytest.raises(ValueError, match="shard_index"):
            EngineConfig(shard_index=-1, shard_count=2)

    def test_merge_rejects_incomplete_or_duplicate_sets(self, tmp_path):
        paths = shard_stores(tmp_path, 2, budget=4)
        out = tmp_path / "merged.jsonl"
        with pytest.raises(CampaignStoreError, match="missing"):
            merge_shard_stores(paths[:1], out)
        with pytest.raises(CampaignStoreError, match="duplicate"):
            merge_shard_stores([paths[0], paths[0]], out)
        with pytest.raises(CampaignStoreError, match="at least one"):
            merge_shard_stores([], out)


class _Repeat:
    """Generator stub: the same program every time."""

    name = "repeat"

    def __init__(self, program):
        self.program = program

    def generate(self):
        return self.program

    def observe(self, outcome):
        pass


class TestRunSharing:
    def test_matrix_dedup_counts(self):
        program = GeneratedProgram(source=TRANSCENDENTAL, inputs=(0.37, 1.91, 5))
        compilers = [GccCompiler(), ClangCompiler(), NvccCompiler()]
        engine = CampaignEngine(
            compilers, CampaignConfig(budget=1), EngineConfig(jobs=1)
        )
        result = engine.run(_Repeat(program))
        # Levels of one class share a kernel object: 18 cells, 9 runs.
        assert (result.total_runs, result.shared_runs) == (18, 9)

    def test_execute_stage_shares_by_kernel_object(self, monkeypatch):
        """The execute stage walks no kernel: it interns nothing and
        compiles one tape per (kernel object, environment) group of the
        successful compiles.  Content keys serve only the compare stage."""
        from repro.execution import worker
        from repro.toolchains import cache

        interns = {"execute": 0, "elsewhere": 0}
        tapes = [0]
        groups = [0]
        stage = ["elsewhere"]
        intern = cache._intern
        compile_tape = worker.compile_tape

        def counting_intern(node, table):
            interns[stage[0]] += 1
            return intern(node, table)

        def counting_tape(kernel, env):
            tapes[0] += 1
            return compile_tape(kernel, env)

        class Recording(CampaignEngine):
            def _execute_stage(self, compiles, inputs):
                groups[0] += len(
                    {
                        (id(r.binary.kernel), env_fingerprint(r.binary.env))
                        for r in compiles
                        if r.ok
                    }
                )
                stage[0] = "execute"
                try:
                    return super()._execute_stage(compiles, inputs)
                finally:
                    stage[0] = "elsewhere"

        monkeypatch.setattr(cache, "_intern", counting_intern)
        monkeypatch.setattr(worker, "compile_tape", counting_tape)
        seed = 20250916
        engine = Recording(
            default_compilers(),
            CampaignConfig(budget=10, seed=seed),
            EngineConfig(backend="serial", jobs=1, exec_mode="tape"),
        )
        result = engine.run(make_generator("loops", SplittableRng(seed, "cli-loops")))
        assert interns["execute"] == 0
        assert interns["elsewhere"] > 0  # the tier-tag precondition still keys
        assert tapes[0] == groups[0] == result.total_runs - result.shared_runs

    def test_reused_engine_reports_per_run_counters(self):
        # A second run on the same engine must report that run's own
        # deltas, not lifetime totals.
        program = GeneratedProgram(source=TRANSCENDENTAL, inputs=(0.37, 1.91, 5))
        compilers = [GccCompiler(), ClangCompiler(), NvccCompiler()]
        engine = CampaignEngine(
            compilers, CampaignConfig(budget=2), EngineConfig(jobs=1)
        )
        first = engine.run(_Repeat(program))
        second = engine.run(_Repeat(program))
        assert first.total_runs == second.total_runs == 2 * 18
        assert first.shared_runs == second.shared_runs

    def test_fingerprint_distinguishes_signed_zero(self):
        from repro.frontend.parser import parse_program
        from repro.frontend.sema import check_program
        from repro.ir.lower import lower_compute

        plus = lower_compute(
            check_program(
                parse_program(
                    "#include <stdio.h>\nvoid compute(double a) {"
                    ' double comp = a + 0.0; printf("%.17g\\n", comp); }\n'
                    "int main(int argc, char **argv) {"
                    " compute(atof(argv[1])); return 0; }"
                )
            )
        )
        minus = lower_compute(
            check_program(
                parse_program(
                    "#include <stdio.h>\nvoid compute(double a) {"
                    ' double comp = a + -0.0; printf("%.17g\\n", comp); }\n'
                    "int main(int argc, char **argv) {"
                    " compute(atof(argv[1])); return 0; }"
                )
            )
        )
        table: dict = {}
        assert kernel_fingerprint(plus, table) != kernel_fingerprint(minus, table)


def _pass_classes(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _pass_classes(sub)


def _counted_loops_campaign(monkeypatch):
    """A 20-program serial ``loops`` campaign (the approach that revisits
    kernels across programs most often) with ``Compiler.compile_kernel``,
    ``compile_tape`` and every ``Pass.run`` counted.

    Returns the engine, the result, one ``(outcome, compiles, tape keys)``
    triple per program, the ids of every tape compiled and the campaign's
    ``Pass.run`` total.  Each compile is ``(compiler, level, token,
    optimized kernel)``; each tape key is ``(id(kernel),
    env_fingerprint(env))``.
    """
    from repro.execution import worker
    from repro.ir.passes.base import Pass
    from repro.toolchains.base import Compiler

    compiles: list[tuple] = []
    tapes: list[tuple[str, tuple]] = []
    tape_ids: set[int] = set()
    pass_runs = [0]
    compile_kernel = Compiler.compile_kernel
    compile_tape = worker.compile_tape

    def counting_compile(compiler, kernel, level, memo=None):
        binary = compile_kernel(compiler, kernel, level, memo)
        compiles.append(
            (compiler.name, level, compiler.cache_token(level), binary.kernel)
        )
        return binary

    def counting_tape(kernel, env):
        # Kernels live until their program's progress call, so ids are
        # distinct within one program's list.
        tapes.append((id(kernel), env_fingerprint(env)))
        tape = compile_tape(kernel, env)
        tape_ids.add(id(tape))
        return tape

    def counting_run(run):
        def wrapped(self, kernel):
            pass_runs[0] += 1
            return run(self, kernel)

        return wrapped

    monkeypatch.setattr(Compiler, "compile_kernel", counting_compile)
    monkeypatch.setattr(worker, "compile_tape", counting_tape)
    for cls in set(_pass_classes(Pass)):
        if "run" in vars(cls):
            monkeypatch.setattr(cls, "run", counting_run(vars(cls)["run"]))
    per_program = []

    def progress(index, outcome):
        per_program.append((outcome, list(compiles), list(tapes)))
        compiles.clear()
        tapes.clear()

    # At this seed one program lowers to a kernel an earlier program
    # already compiled, so a cross-program cache would serve it.
    seed = 20250919
    engine = CampaignEngine(
        default_compilers(),
        CampaignConfig(budget=20, seed=seed),
        EngineConfig(backend="serial", jobs=1, exec_mode="tape"),
    )
    result = engine.run(
        make_generator("loops", SplittableRng(seed, "cli-loops")), progress=progress
    )
    assert len(per_program) == 20
    return engine, result, per_program, tape_ids, pass_runs[0]


class TestNothingCachedAcrossPrograms:
    """Only in-program dedup remains: no compilation or tape is reused
    from an earlier program, and no tape outlives its campaign."""

    def test_one_compile_per_cell_one_tape_per_group(self, monkeypatch):
        engine, result, per_program, _, pass_runs = _counted_loops_campaign(
            monkeypatch
        )
        for outcome, compiled, taped in per_program:
            kernels = frontend_kernels(outcome.program.source).kernels
            cells = [
                (c.name, level)
                for c in engine.compilers
                if c.kind in kernels
                for level in engine.config.levels
            ]
            assert [(name, level) for name, level, _, _ in compiled] == cells
            # One level class, one optimized kernel object.
            by_class: dict = {}
            for name, _, token, kernel in compiled:
                assert by_class.setdefault((name, token), kernel) is kernel
            # One tape per (kernel object, environment) group.
            assert len(taped) == len(set(taped))
        groups = result.total_runs - result.shared_runs
        assert sum(len(taped) for _, _, taped in per_program) == groups
        # The pass memo runs as many passes as one compile per level
        # class did (pinned when classes still compiled once each).
        assert pass_runs == 412
        assert (result.total_runs, result.shared_runs) == (360, 180)

    def test_no_tape_outlives_the_campaign(self, monkeypatch):
        import gc

        from repro.execution.tape import Tape

        _, _, _, tape_ids, _ = _counted_loops_campaign(monkeypatch)
        assert tape_ids
        gc.collect()
        alive = [o for o in gc.get_objects() if isinstance(o, Tape) and id(o) in tape_ids]
        assert alive == []


class TestLibmEvaluations:
    def test_tape_call_sites_reuse_repeated_arguments(self, monkeypatch):
        """Loop bodies repeat the same libm call; each tape call site
        evaluates a repeated argument once.  Evaluating every call, this
        campaign made 9,106 ``PerturbedLibm.call`` evaluations.  Runs are
        shared by kernel object, so content-equal kernels built as
        different objects each run (509 evaluations under content keys)."""
        from repro.fp.mathlib import PerturbedLibm

        evaluations = [0]
        original = PerturbedLibm.call

        def counted(self, fn, args, fmt):
            evaluations[0] += 1
            return original(self, fn, args, fmt)

        monkeypatch.setattr(PerturbedLibm, "call", counted)
        seed = 20250916
        engine = CampaignEngine(
            default_compilers(),
            CampaignConfig(budget=10, seed=seed),
            EngineConfig(backend="serial", jobs=1, exec_mode="tape"),
        )
        engine.run(make_generator("varity", SplittableRng(seed, "cli-varity")))
        assert evaluations[0] == 568


class TestStageAccounting:
    def test_stage_buckets_cover_total(self):
        result = run_with(EngineConfig(jobs=1), budget=3)
        stages = result.stage_seconds
        assert set(stages) == {"generate", "frontend", "compile", "execute", "compare"}
        assert all(v >= 0.0 for v in stages.values())
        assert result.total_seconds == pytest.approx(
            sum(stages.values()) + result.llm_latency_seconds
        )

    def test_report_exposes_stage_summary(self):
        from repro.difftest.report import CampaignReport

        result = run_with(EngineConfig(jobs=1), budget=2)
        report = CampaignReport(result)
        summary = report.stage_summary()
        assert summary["total_runs"] == 2 * 18
        rendered = report.render_stages()
        assert "compile" in rendered and "execute" in rendered


class TestValidation:
    def test_single_compiler_message_names_it(self):
        with pytest.raises(ValueError, match=r"got 1 \(gcc\)"):
            CampaignEngine([GccCompiler()], CampaignConfig(budget=1))

    def test_duplicate_names_listed(self):
        with pytest.raises(ValueError, match="duplicate name"):
            CampaignEngine(
                [GccCompiler(), GccCompiler(), NvccCompiler()],
                CampaignConfig(budget=1),
            )
        with pytest.raises(ValueError, match="gcc"):
            CampaignEngine(
                [GccCompiler(), GccCompiler(), NvccCompiler()],
                CampaignConfig(budget=1),
            )

    def test_engine_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(jobs=0)


class TestDifferingValueGuard:
    """Satellite: a matching printed prefix with a None final must not
    crash digit accounting — it becomes a sentinel comparison."""

    def test_none_final_returns_sentinel(self):
        ra = ExecutionResult(ExecStatus.OK, printed=())
        rb = ExecutionResult(ExecStatus.OK, printed=(1.0,))
        va, vb = _differing_values(ra, rb)
        assert va is None and vb == 1.0
        assert _diffing_digits(va, vb) == 0

    def test_sentinel_comparison_recorded_not_raised(self):
        # Engine-level: inject executed cells directly into the compare stage.
        from repro.difftest.record import ProgramOutcome
        from repro.toolchains import OptLevel
        from repro.toolchains.base import Binary

        compilers = [GccCompiler(), NvccCompiler()]
        engine = CampaignEngine(
            compilers,
            CampaignConfig(budget=1, levels=(OptLevel.O0,)),
        )
        outcome = ProgramOutcome(
            index=0, program=GeneratedProgram(source="", inputs=())
        )
        # glibc vs CUDA libm: the environments differ, so tagging stops
        # before it needs the (absent) kernels.
        compiles = [
            CompileRecord(
                c.name,
                OptLevel.O0,
                True,
                binary=Binary(c.name, OptLevel.O0, None, c.environment(OptLevel.O0)),
                result=ExecutionResult(ExecStatus.OK, printed=printed),
            )
            for c, printed in zip(compilers, [(), (1.0,)])
        ]
        engine._compare_stage(0, compiles, outcome)
        assert outcome.signatures == {"gcc/O0": "", "nvcc/O0": "3ff0000000000000"}
        assert len(outcome.comparisons) == 1
        rec = outcome.comparisons[0]
        assert not rec.consistent
        assert rec.value_a is None and rec.value_b == 1.0
        assert rec.digit_diff == 0
        assert rec.kind is None  # sentinel: outside the five-class taxonomy

    def test_matched_digits_still_computed(self):
        ra = ExecutionResult(ExecStatus.OK, printed=(1.0,))
        rb = ExecutionResult(ExecStatus.OK, printed=(2.0,))
        va, vb = _differing_values(ra, rb)
        assert (va, vb) == (1.0, 2.0)
        assert _diffing_digits(va, vb) > 0


class TestJsonLineProgress:
    """The machine-readable progress stream fleet worker logs record."""

    def test_one_json_line_per_program_plus_summary(self):
        import io
        import json

        from repro.difftest.engine import JsonLineProgress

        stream = io.StringIO()
        progress = JsonLineProgress(budget=4, stream=stream)
        result = CampaignEngine(
            [GccCompiler(), NvccCompiler()], CampaignConfig(budget=4)
        ).run(make_generator("varity", SplittableRng(5)), progress=progress)
        progress.finish()
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        programs = [e for e in lines if e["event"] == "program"]
        assert [e["index"] for e in programs] == [0, 1, 2, 3]
        assert [e["done"] for e in programs] == [1, 2, 3, 4]
        assert all(e["budget"] == 4 for e in programs)
        done = lines[-1]
        assert done["event"] == "campaign-done" and done["done"] == 4
        assert done["triggering_programs"] == sum(
            bool(o.triggered) for o in result.outcomes
        )

    def test_sharded_done_counts_owned_programs_only(self):
        import io
        import json

        from repro.difftest.engine import JsonLineProgress

        stream = io.StringIO()
        progress = JsonLineProgress(budget=6, stream=stream)
        CampaignEngine(
            [GccCompiler(), NvccCompiler()],
            CampaignConfig(budget=6),
            EngineConfig(shard_index=1, shard_count=2),
        ).run(make_generator("varity", SplittableRng(5)), progress=progress)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [e["index"] for e in lines] == [1, 3, 5]
        assert [e["done"] for e in lines] == [1, 2, 3]
