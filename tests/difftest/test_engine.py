"""The staged campaign engine: determinism, sharing, stages, backends,
sharding."""

import pytest

from repro.difftest.backend import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    create_backend,
    resolve_jobs,
)
from repro.difftest.config import CampaignConfig
from repro.difftest.engine import (
    CampaignEngine,
    EngineConfig,
    _BinaryRun,
    _differing_values,
    _diffing_digits,
)
from repro.difftest.harness import run_campaign
from repro.difftest.store import merge_shards
from repro.experiments.approaches import make_generator
from repro.fp.bits import double_to_hex
from repro.generation.program import GeneratedProgram
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


def run_with(engine_config, approach="varity", budget=8, seed=123):
    rng = SplittableRng(seed, f"engine-{approach}")
    generator = make_generator(approach, rng)
    compilers = [GccCompiler(), ClangCompiler(), NvccCompiler()]
    engine = CampaignEngine(
        compilers, CampaignConfig(budget=budget), engine_config
    )
    return engine.run(generator)


class TestDeterminism:
    """The acceptance property: results are byte-identical across job
    counts and sharing configurations; only timings may differ."""

    def test_jobs_1_vs_4_identical(self):
        serial = run_with(EngineConfig(jobs=1))
        parallel = run_with(EngineConfig(jobs=4))
        assert result_key(serial) == result_key(parallel)

    def test_sharing_on_off_identical(self):
        legacy = run_with(EngineConfig(jobs=1, share_runs=False))
        shared = run_with(EngineConfig(jobs=1, share_runs=True))
        assert result_key(legacy) == result_key(shared)

    def test_parallel_all_knobs_identical_to_legacy(self):
        legacy = run_with(EngineConfig(jobs=1, share_runs=False))
        full = run_with(EngineConfig(jobs=4, share_runs=True))
        assert result_key(legacy) == result_key(full)

    def test_shim_matches_engine(self):
        rng = SplittableRng(123, "engine-varity")
        generator = make_generator("varity", rng)
        compilers = [GccCompiler(), ClangCompiler(), NvccCompiler()]
        shimmed = run_campaign(generator, compilers, CampaignConfig(budget=8))
        assert result_key(shimmed) == result_key(run_with(EngineConfig()))


class TestBackendEquivalence:
    """The tentpole property: serial, thread and process backends produce
    byte-for-byte identical campaigns; only wall-clock differs."""

    def test_serial_thread_process_identical(self):
        serial = run_with(EngineConfig(backend="serial", jobs=1), budget=6)
        thread = run_with(EngineConfig(backend="thread", jobs=4), budget=6)
        process = run_with(EngineConfig(backend="process", jobs=2), budget=6)
        assert result_key(serial) == result_key(thread)
        assert result_key(serial) == result_key(process)

    def test_vector_lanes_identical_across_backends(self):
        """Vector execution is deterministic lane math: a loops campaign
        (reduction kernels exercising the vectorization tier, including
        the vector-reduction tags) is byte-identical on every backend."""
        serial = run_with(
            EngineConfig(backend="serial", jobs=1), approach="loops", budget=8
        )
        thread = run_with(
            EngineConfig(backend="thread", jobs=4), approach="loops", budget=8
        )
        process = run_with(
            EngineConfig(backend="process", jobs=2), approach="loops", budget=8
        )
        assert result_key(serial) == result_key(thread)
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
        thread = run_with(
            EngineConfig(backend="thread", jobs=4), approach="loops", budget=10
        )
        process = run_with(
            EngineConfig(backend="process", jobs=2), approach="loops", budget=10
        )
        assert result_key(serial) == result_key(thread)
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

    def test_process_backend_no_pool_for_single_job(self):
        # jobs=1 must never spawn a pool: run_batches goes inline
        backend = ProcessBackend(jobs=1)
        assert backend.run_batches([]) == []
        assert backend._pool is None
        backend.shutdown()

    def test_jobs_auto_resolves_to_cpu_count(self):
        import os

        assert resolve_jobs("auto") == (os.cpu_count() or 1)
        assert EngineConfig(jobs="auto").resolved_jobs == (os.cpu_count() or 1)

    def test_create_backend_types(self):
        assert isinstance(create_backend("serial", 1), SerialBackend)
        assert isinstance(create_backend("thread", 2), ThreadBackend)
        assert isinstance(create_backend("process", 2), ProcessBackend)
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("fork-bomb", 2)
        with pytest.raises(ValueError, match="serial backend"):
            create_backend("serial", 2)

    def test_backend_config_validation(self):
        with pytest.raises(ValueError, match="unknown backend"):
            EngineConfig(backend="greenlet")
        with pytest.raises(ValueError, match="serial backend"):
            EngineConfig(backend="serial", jobs=4)
        with pytest.raises(ValueError, match="jobs"):
            EngineConfig(jobs="many")


class TestSharding:
    def test_shard_union_identical_to_unsharded(self):
        unsharded = run_with(EngineConfig(), budget=8)
        shards = [
            run_with(EngineConfig(shard_index=i, shard_count=3), budget=8)
            for i in range(3)
        ]
        # disjoint coverage: every index exactly once across shards
        indices = sorted(o.index for r in shards for o in r.outcomes)
        assert indices == list(range(8))
        merged = merge_shards(shards)
        assert result_key(merged) == result_key(unsharded)
        assert merged.shard_count == 1 and merged.budget == 8

    def test_shard_counters_sum_to_unsharded(self):
        unsharded = run_with(EngineConfig(), budget=6)
        shards = [
            run_with(EngineConfig(shard_index=i, shard_count=2), budget=6)
            for i in range(2)
        ]
        merged = merge_shards(shards)
        assert merged.total_runs == unsharded.total_runs
        assert merged.triggering_programs == unsharded.triggering_programs

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

    def test_merge_rejects_incomplete_or_duplicate_sets(self):
        shards = [
            run_with(EngineConfig(shard_index=i, shard_count=2), budget=4)
            for i in range(2)
        ]
        with pytest.raises(ValueError, match="missing"):
            merge_shards(shards[:1])
        with pytest.raises(ValueError, match="duplicate"):
            merge_shards([shards[0], shards[0]])
        with pytest.raises(ValueError, match="at least one"):
            merge_shards([])


class _Repeat:
    """Generator stub: the same program every time."""

    name = "repeat"

    def __init__(self, program):
        self.program = program

    def generate(self):
        return self.program

    def notify_success(self, program):
        pass


class TestRunSharing:
    def test_matrix_dedup_counts(self):
        program = GeneratedProgram(source=TRANSCENDENTAL, inputs=(0.37, 1.91, 5))
        compilers = [GccCompiler(), ClangCompiler(), NvccCompiler()]
        engine = CampaignEngine(
            compilers, CampaignConfig(budget=1), EngineConfig(jobs=1)
        )
        result = engine.run(_Repeat(program))
        assert result.total_runs == 18
        # at minimum the within-compiler level classes collapse 18 -> <= 12
        # (the vector tier splits O2/O3 into their own classes)
        assert result.shared_runs >= 9
        assert result.run_share_rate >= 9 / 18

    def test_sharing_disabled_runs_everything(self):
        program = GeneratedProgram(source=TRANSCENDENTAL, inputs=(0.37, 1.91, 5))
        compilers = [GccCompiler(), ClangCompiler(), NvccCompiler()]
        engine = CampaignEngine(
            compilers,
            CampaignConfig(budget=1),
            EngineConfig(jobs=1, share_runs=False),
        )
        result = engine.run(_Repeat(program))
        assert result.total_runs == 18 and result.shared_runs == 0

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
        assert kernel_fingerprint(plus) != kernel_fingerprint(minus)


def _counted_loops_campaign(monkeypatch):
    """A 20-program serial ``loops`` campaign (the approach that revisits
    kernels across programs most often) with ``Compiler.compile_kernel`` and
    ``compile_tape`` counted per program.

    Returns the engine, the result, one ``(outcome, compile keys, tape
    keys)`` triple per program, and the ids of every tape compiled.
    """
    from repro.execution import batch
    from repro.toolchains.base import Compiler

    compiles: list[tuple[str, str]] = []
    tapes: list[tuple[str, tuple]] = []
    tape_ids: set[int] = set()
    compile_kernel = Compiler.compile_kernel
    compile_tape = batch.compile_tape

    def counting_compile(compiler, kernel, level):
        compiles.append((compiler.name, compiler.cache_token(level)))
        return compile_kernel(compiler, kernel, level)

    def counting_tape(kernel, env):
        tapes.append((kernel_fingerprint(kernel), env_fingerprint(env)))
        tape = compile_tape(kernel, env)
        tape_ids.add(id(tape))
        return tape

    monkeypatch.setattr(Compiler, "compile_kernel", counting_compile)
    monkeypatch.setattr(batch, "compile_tape", counting_tape)
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
    return engine, result, per_program, tape_ids


class TestNothingCachedAcrossPrograms:
    """Only in-program dedup remains: no compilation or tape is reused
    from an earlier program, and no tape outlives its campaign."""

    def test_one_compile_per_leader_one_tape_per_group(self, monkeypatch):
        from repro.difftest.engine import frontend_kernels

        engine, result, per_program, _ = _counted_loops_campaign(monkeypatch)
        for outcome, compiled, taped in per_program:
            kernels = frontend_kernels(outcome.program.source).kernels
            leaders = {
                (c.name, c.cache_token(level))
                for c in engine.compilers
                if c.kind in kernels
                for level in engine.config.levels
            }
            assert sorted(compiled) == sorted(leaders)
            assert len(taped) == len(set(taped))
        groups = result.total_runs - result.shared_runs
        assert sum(len(taped) for _, _, taped in per_program) == groups

    def test_no_tape_outlives_the_campaign(self, monkeypatch):
        import gc

        from repro.execution.tape import Tape

        *_, tape_ids = _counted_loops_campaign(monkeypatch)
        assert tape_ids
        gc.collect()
        alive = [o for o in gc.get_objects() if isinstance(o, Tape) and id(o) in tape_ids]
        assert alive == []


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
        ra = _BinaryRun(signature="", value=None, printed=())
        rb = _BinaryRun(
            signature="3ff0000000000000", value=1.0, printed=(1.0,)
        )
        va, vb = _differing_values(ra, rb)
        assert va is None and vb == 1.0
        assert _diffing_digits(va, vb) == 0

    def test_sentinel_comparison_recorded_not_raised(self):
        # Engine-level: inject runs directly into the compare stage.
        from repro.difftest.record import ProgramOutcome
        from repro.toolchains import OptLevel

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
        gcc_env, nvcc_env = (c.environment(OptLevel.O0) for c in compilers)
        runs = {
            ("gcc", OptLevel.O0): _BinaryRun("", None, (), env=gcc_env),
            ("nvcc", OptLevel.O0): _BinaryRun(
                "3ff0000000000000", 1.0, (1.0,), env=nvcc_env
            ),
        }
        engine._compare_stage(0, runs, outcome)
        assert len(outcome.comparisons) == 1
        rec = outcome.comparisons[0]
        assert not rec.consistent
        assert rec.value_a is None and rec.value_b == 1.0
        assert rec.digit_diff == 0
        assert rec.kind is None  # sentinel: outside the five-class taxonomy

    def test_matched_digits_still_computed(self):
        ra = _BinaryRun("x", 1.0, (1.0,))
        rb = _BinaryRun("y", 2.0, (2.0,))
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
