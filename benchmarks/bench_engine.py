"""E-ENG: campaign throughput — serial loop vs dedup engine vs process backend.

Replays one fixed program workload (the substrate benchmark generator)
through three engine configurations:

* **serial** — ``backend=serial``, run sharing off:
  the exact cost model of the pre-engine monolithic loop (recompile and
  re-execute every (compiler, level) cell from scratch).
* **dedup** — ``backend=serial`` with the per-program pass memo and
  identical-binary run sharing on.  Its speedup is funded by *dedup*
  alone.
* **process** — ``backend=process, jobs=auto`` with the same sharing:
  whole programs fan out to a process pool (the parent tests every
  ``jobs``-th one), adding real multi-core parallelism on top of the
  dedup.

Asserted shape: every configuration produces a byte-identical
CampaignResult; the dedup engine sustains >= 1.6x the serial
programs/sec on any machine; the process backend sustains >= 1.6x serial
on multi-core hardware (on a single core its IPC overhead is reported
but not asserted — there is no parallelism to buy).

The dedup floor was 2x before the vectorization tier: splitting O2/O3
into their own (pipeline, environment) classes (gcc/clang 3 -> 5 level
classes) is *less* redundancy for the dedup to collapse,
so the structural speedup ceiling dropped with it.  That is a modeling
change, not an engine regression — the measured floor is re-derived
(~2.0x observed on a 1-CPU container; 1.6x leaves headroom for noisy
runners) and the committed baseline regenerated.

An island-model leg (schema 5) tracks the cost of fitness-guided
feedback generation: the llm4fp approach run as an in-process island
campaign (``islands=4``), whose generate stage adds the novelty census,
SUS strategy selection and merge-point migrant exchange on top of plain
mutation.  ``island_throughput`` is warn-only in the regression gate
(absolute wall-clock); the bit-identity of the island campaign between
the serial backend and ``backend=process, jobs=2`` (where an island
campaign runs inline) *is* asserted — the island model's determinism
contract.

Two tape-executor legs ride along (schema 4): the loops campaign re-run
under ``exec_mode=tape`` (its result must be bit-identical — part of the
``identical`` gate), and a tape-reuse microbench where every distinct
(optimized kernel, environment) of the workload runs a set of inputs in
both modes.  ``tape_speedup`` is that microbench's ratio — the regime
where one tape compile is replayed on many input sets.  In a plain
campaign each kernel runs once, and the tape still wins there:
``loops_tape_throughput`` against ``loops_throughput`` (the ``check``
leg, which also runs the interpreter) is its end-to-end effect;
``execute_stage_share`` records how much of campaign wall-clock the
execute stage is (the Amdahl context for any engine-level expectation).

A full-tier leg (schema 7) tracks the divergence tiers'
coverage and cost: the loops workload regenerated with the full
profile's tier shares (libm-call, mixed-precision and integer-guarded
loops) through ``default_compilers(tiers="full")``.
``tiers_throughput`` is its absolute cost (warn-only — the full
pipelines carry extra vectorizer work and the vec-libm environments);
``tier_tag_floor`` is the *minimum* count across the three new
structural tags (``vec-libm``, ``mixed-precision``,
``masked-int-guard``) — the benchmark asserts it is nonzero (every new
tier engages), and the regression gate tracks it warn-only so a
generator or policy change that quietly starves a tier is visible.

A corpus-replay leg (schema 6) tracks the cost of the longitudinal
regression prelude: the substrate workload's triggers are ingested into
a scratch :class:`~repro.corpus.TriggerCorpus` and the same campaign is
re-run wrapped in :class:`~repro.corpus.CorpusReplayGenerator`, its
budget widened by the seed count.  ``corpus_replay_overhead`` is the
per-program throughput of the wrapped campaign relative to the bare one
(higher is better; 1.0 = the prelude is free) and is warn-only in the
regression gate; that every replayed seed re-triggers under the same
compiler model *is* asserted — the replay determinism contract.

Run standalone for a report plus machine-readable results::

    python benchmarks/bench_engine.py --json BENCH_engine.json

``scripts/check_bench_regression.py`` compares that JSON against the
committed baseline (``benchmarks/BENCH_engine_baseline.json``) and fails
on >30% throughput regression — the CI gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig
from repro.experiments.approaches import make_generator
from repro.fp.bits import double_to_hex
from repro.toolchains import default_compilers
from repro.utils.rng import SplittableRng

#: enough programs for a stable ratio, small enough for CI
_BUDGET = 40
_SEED = 20250916

#: loops-workload budget: the vector/masking tier's cost tracker (the
#: loops generator produces reduction and guarded kernels, so compile
#: cost includes if-convert + unroll + widening at every masking level)
_LOOPS_BUDGET = 24

#: engine legs pin ``exec_mode="check"``, the one engine mode that runs
#: the reference interpreter, so serial/dedup/process keep the
#: interpreter-bound execute stage their speedup floors were calibrated
#: on (dedup + scheduling); the tape executor gets its own legs below,
#: where its costs and gains are attributable.
CONFIGS = {
    "serial": EngineConfig(
        backend="serial", jobs=1, share_runs=False,
        exec_mode="check",
    ),
    "dedup": EngineConfig(
        backend="serial", jobs=1, share_runs=True,
        exec_mode="check",
    ),
    "process": EngineConfig(
        backend="process", jobs="auto", share_runs=True,
        exec_mode="check",
    ),
}

#: the dedup leg re-run with the tape executor (same workload, same
#: dedup): what a default campaign actually runs
TAPE_CONFIG = EngineConfig(
    backend="serial", jobs=1, share_runs=True,
    exec_mode="tape",
)

#: island leg: the feedback approach as an in-process island campaign
#: (generation itself partitioned; merge points exchange migrants)
_ISLAND_BUDGET = 24
_ISLANDS = 4
_ISLAND_MERGE_EVERY = 3
ISLAND_CONFIG = EngineConfig(
    backend="serial", jobs=1, share_runs=True,
    islands=_ISLANDS, merge_every=_ISLAND_MERGE_EVERY,
)

#: full-tier leg: enough loops programs that every new tier's tag
#: appears (the vec-libm tier only engages at O3_fastmath, where
#: fast-math reassociation suppresses many candidates, so it needs the
#: largest sample)
_TIERS_BUDGET = 60

#: the three structural tags the full profile adds over baseline
_NEW_TIER_TAGS = ("vec-libm", "mixed-precision", "masked-int-guard")

#: input sets per kernel in the tape-reuse microbench, where one tape
#: compile serves every input
_TAPE_BATCH = 8


class _Replay:
    """Replays a pre-generated program list (identical for every config)."""

    name = "replay"

    def __init__(self, programs):
        self._programs = list(programs)
        self._next = 0

    def generate(self):
        program = self._programs[self._next]
        self._next += 1
        return program

    def observe(self, outcome):
        pass


def _workload(budget: int = _BUDGET):
    rng = SplittableRng(_SEED, "bench-engine")
    generator = make_generator("varity", rng)
    return [generator.generate() for _ in range(budget)]


def _loops_workload(budget: int = _LOOPS_BUDGET):
    rng = SplittableRng(_SEED, "bench-engine-loops")
    generator = make_generator("loops", rng)
    return [generator.generate() for _ in range(budget)]


def _tiers_workload(budget: int = _TIERS_BUDGET):
    rng = SplittableRng(_SEED, "bench-engine-tiers")
    generator = make_generator("loops", rng, tiers="full")
    return [generator.generate() for _ in range(budget)]


def _run(programs, engine_config, compilers=None):
    engine = CampaignEngine(
        default_compilers() if compilers is None else compilers,
        CampaignConfig(budget=len(programs)),
        engine_config,
    )
    t0 = time.perf_counter()
    result = engine.run(_Replay(programs))
    seconds = time.perf_counter() - t0
    return result, seconds


def _run_island(engine_config, budget: int = _ISLAND_BUDGET):
    """One island campaign with a *fresh* feedback generator (islands
    partition generation, so the replay trick does not apply)."""
    engine = CampaignEngine(
        default_compilers(),
        CampaignConfig(budget=budget, seed=_SEED),
        engine_config,
    )
    generator = make_generator("llm4fp", SplittableRng(_SEED, "bench-islands"))
    t0 = time.perf_counter()
    result = engine.run(generator)
    return result, time.perf_counter() - t0


def _hex(v):
    return None if v is None else double_to_hex(v)


def _result_key(result):
    return [
        (
            o.index,
            o.compiled,
            o.ran,
            o.signatures,
            {k: _hex(v) for k, v in o.values.items()},
            [
                (c.compiler_a, c.compiler_b, c.level, c.consistent, c.digit_diff)
                for c in o.comparisons
            ],
            o.triggered,
        )
        for o in result.outcomes
    ]


def _tape_microbench(programs, batch: int = _TAPE_BATCH) -> dict:
    """Tape reuse, tree vs tape, over the workload's real matrix.

    Every distinct (optimized kernel, environment) of the workload runs
    ``batch`` input sets in both modes: the tree leg calls
    ``Interpreter(...).run`` once per input, the tape leg compiles one
    :func:`~repro.execution.tape.compile_tape` per kernel and calls
    ``Tape.run`` on each input.  Results are compared bit-for-bit.
    """
    from repro.difftest.engine import frontend_kernels
    from repro.execution.interp import Interpreter
    from repro.execution.limits import DEFAULT_MAX_STEPS
    from repro.execution.tape import compile_tape
    from repro.execution.worker import result_key
    from repro.toolchains.cache import env_fingerprint, kernel_fingerprint
    from repro.toolchains.optlevels import ALL_LEVELS

    units = {}
    table: dict = {}  # one intern table: units dedup across programs
    for program in programs:
        frontend = frontend_kernels(program.source)
        for compiler in default_compilers():
            kernel = frontend.kernels.get(compiler.kind)
            if kernel is None:
                continue
            for level in ALL_LEVELS:
                binary = compiler.compile_kernel(kernel, level)
                key = (
                    kernel_fingerprint(binary.kernel, table),
                    env_fingerprint(binary.env),
                )
                units.setdefault(
                    key, (binary.kernel, binary.env, program.inputs)
                )
    tasks = [
        (kernel, env, (inputs,) * batch)
        for kernel, env, inputs in units.values()
    ]

    def tree_runs(kernel, env, input_sets):
        return [Interpreter(kernel, env).run(inputs) for inputs in input_sets]

    def tape_runs(kernel, env, input_sets):
        tape = compile_tape(kernel, env)
        return [tape.run(inputs, DEFAULT_MAX_STEPS) for inputs in input_sets]

    seconds = {}
    keys = {}
    for mode, runs in (("tree", tree_runs), ("tape", tape_runs)):
        t0 = time.perf_counter()
        outs = [runs(*task) for task in tasks]
        seconds[mode] = time.perf_counter() - t0
        keys[mode] = [[result_key(r) for r in out] for out in outs]
    return {
        "units": len(tasks),
        "batch": batch,
        "tree_seconds": seconds["tree"],
        "tape_seconds": seconds["tape"],
        "speedup": seconds["tree"] / seconds["tape"],
        "identical": keys["tree"] == keys["tape"],
    }


def _corpus_replay_bench(programs, baseline_result, baseline_seconds) -> dict:
    """The same campaign re-run behind the corpus regression prelude.

    The baseline campaign's triggers become a scratch corpus; the wrapped
    campaign replays every stored seed first, then the identical program
    stream, so its extra cost is exactly the prelude.  Replayed seeds
    are bit-identical programs under the same compiler model, so each
    one must re-trigger — asserted in :func:`check`.
    """
    import tempfile
    from pathlib import Path

    from repro.corpus import CorpusReplayGenerator, TriggerCorpus

    with tempfile.TemporaryDirectory() as tmp:
        with TriggerCorpus(Path(tmp) / "corpus.jsonl") as corpus:
            corpus.ingest(baseline_result.outcomes, "bench")
        seeds = corpus.seeds()
    budget = len(programs)
    engine = CampaignEngine(
        default_compilers(),
        CampaignConfig(budget=budget + len(seeds)),
        CONFIGS["dedup"],
    )
    generator = CorpusReplayGenerator(seeds, _Replay(programs))
    t0 = time.perf_counter()
    result = engine.run(generator)
    seconds = time.perf_counter() - t0
    prelude = result.outcomes[: len(seeds)]
    throughput = (budget + len(seeds)) / seconds
    baseline_throughput = budget / baseline_seconds
    return {
        "seeds": len(seeds),
        "seconds": seconds,
        "throughput": throughput,
        "overhead": throughput / baseline_throughput,
        "retriggered": sum(1 for o in prelude if o.triggered),
    }


def measure(budget: int = _BUDGET, loops_budget: int = _LOOPS_BUDGET) -> dict:
    programs = _workload(budget)
    keys = {}
    configs = {}
    shared = {}
    for name, engine_config in CONFIGS.items():
        result, seconds = _run(programs, engine_config)
        keys[name] = _result_key(result)
        configs[name] = {
            "seconds": seconds,
            "throughput": budget / seconds,
            "jobs": engine_config.resolved_jobs,
        }
        shared[name] = result
    serial_s = configs["serial"]["seconds"]
    # Loops workload (ROADMAP: bench coverage for the vector tier): the
    # same dedup engine over reduction + guarded kernels, whose
    # compile stage runs if-convert/unroll/widening and whose execute
    # stage interprets lane math — a budget-normalized cost tracker that
    # moves when the tier's passes or the interpreter's lane path do.
    loops_programs = _loops_workload(loops_budget)
    loops_result, loops_seconds = _run(loops_programs, CONFIGS["dedup"])
    loops_tags = sum(
        1
        for o in loops_result.outcomes
        for c in o.comparisons
        if not c.consistent and c.tag
    )
    # Tape legs: the same loops workload under the default (tape)
    # executor — campaign identity is part of the determinism gate — and
    # the microbench where one tape compile serves a set of inputs.
    loops_tape_result, loops_tape_seconds = _run(loops_programs, TAPE_CONFIG)
    tape_identical = _result_key(loops_tape_result) == _result_key(loops_result)
    tape = _tape_microbench(programs + loops_programs)
    # Island leg: feedback generation partitioned into islands.  The
    # two-worker process re-run is the determinism witness (same bytes,
    # only wall-clock may differ); throughput is tracked warn-only.
    from dataclasses import replace as _replace

    island_result, island_seconds = _run_island(ISLAND_CONFIG)
    island_process_result, _ = _run_island(
        _replace(ISLAND_CONFIG, backend="process", jobs=2)
    )
    island_identical = (
        _result_key(island_result) == _result_key(island_process_result)
    )
    # Corpus-replay leg: the regression prelude's per-program cost,
    # relative to the bare dedup campaign over the same stream.
    corpus_replay = _corpus_replay_bench(
        programs, shared["dedup"], configs["dedup"]["seconds"]
    )
    # Full-tier leg: the loops generator's tier workloads through the
    # full-profile pipelines and environments.  The floor across the
    # three new tags is the coverage witness: zero means a tier the
    # profile promises never engaged.
    tiers_programs = _tiers_workload()
    tiers_result, tiers_seconds = _run(
        tiers_programs, CONFIGS["dedup"], default_compilers(tiers="full")
    )
    tier_tag_counts: dict = {}
    for o in tiers_result.outcomes:
        for c in o.comparisons:
            if not c.consistent and c.tag:
                tier_tag_counts[c.tag] = tier_tag_counts.get(c.tag, 0) + 1
    tier_tag_floor = min(
        tier_tag_counts.get(tag, 0) for tag in _NEW_TIER_TAGS
    )
    stage_seconds = shared["dedup"].stage_seconds
    return {
        "schema": 7,
        "budget": budget,
        "cpu_count": os.cpu_count() or 1,
        "configs": configs,
        "dedup_speedup": serial_s / configs["dedup"]["seconds"],
        "process_speedup": serial_s / configs["process"]["seconds"],
        "identical": (
            all(keys[n] == keys["serial"] for n in CONFIGS) and tape_identical
        ),
        "run_share_rate": shared["dedup"].run_share_rate,
        "stage_seconds": stage_seconds,
        "execute_stage_share": stage_seconds["execute"]
        / max(sum(stage_seconds.values()), 1e-9),
        "loops_budget": loops_budget,
        "loops_throughput": loops_budget / loops_seconds,
        "loops_tape_throughput": loops_budget / loops_tape_seconds,
        "loops_structural_tags": loops_tags,
        "tape_speedup": tape["speedup"],
        "tape_bench": tape,
        "island_budget": _ISLAND_BUDGET,
        "islands": _ISLANDS,
        "island_merge_every": _ISLAND_MERGE_EVERY,
        "island_throughput": _ISLAND_BUDGET / island_seconds,
        "island_identical": island_identical,
        "island_triggers": sum(
            1 for o in island_result.outcomes if o.triggered
        ),
        "corpus_replay_overhead": corpus_replay["overhead"],
        "corpus_replay_bench": corpus_replay,
        "tiers_budget": _TIERS_BUDGET,
        "tiers_throughput": _TIERS_BUDGET / tiers_seconds,
        "tier_tag_counts": dict(sorted(tier_tag_counts.items())),
        "tier_tag_floor": tier_tag_floor,
    }


def render(m: dict) -> str:
    c = m["configs"]
    lines = [
        f"engine throughput (substrate workload, {m['budget']} programs, "
        f"{m['cpu_count']} CPUs)",
        f"  serial   (inline, no sharing):             "
        f"{c['serial']['throughput']:7.1f} programs/s",
        f"  dedup    (inline, sharing):                "
        f"{c['dedup']['throughput']:7.1f} programs/s  "
        f"({m['dedup_speedup']:.2f}x)",
        f"  process  (jobs={c['process']['jobs']}, sharing):"
        f"                {c['process']['throughput']:7.1f} programs/s  "
        f"({m['process_speedup']:.2f}x)",
        f"  identical results across backends: {m['identical']}",
        f"  run share rate: {m['run_share_rate'] * 100:.1f}%",
        "  dedup stage seconds:    "
        + "  ".join(f"{k}={v:.2f}" for k, v in m["stage_seconds"].items()),
        f"  loops workload ({m['loops_budget']} programs, vector+mask tier): "
        f"{m['loops_throughput']:7.1f} programs/s, "
        f"{m['loops_structural_tags']} structural tags "
        f"(tape executor: {m['loops_tape_throughput']:.1f} programs/s)",
        f"  execute stage share of dedup campaign: "
        f"{m['execute_stage_share'] * 100:.1f}%",
        f"  island campaign ({m['island_budget']} programs, "
        f"{m['islands']} islands, merge every {m['island_merge_every']}): "
        f"{m['island_throughput']:7.1f} programs/s, "
        f"{m['island_triggers']} triggers "
        f"(serial/process identical: {m['island_identical']})",
        f"  tape reuse ({m['tape_bench']['units']} kernels x "
        f"{m['tape_bench']['batch']} inputs): "
        f"tree {m['tape_bench']['tree_seconds']:.2f}s -> "
        f"tape {m['tape_bench']['tape_seconds']:.2f}s  "
        f"({m['tape_speedup']:.2f}x, identical: {m['tape_bench']['identical']})",
        f"  corpus replay prelude ({m['corpus_replay_bench']['seeds']} seeds): "
        f"{m['corpus_replay_bench']['throughput']:7.1f} programs/s  "
        f"({m['corpus_replay_overhead']:.2f}x of bare campaign, "
        f"{m['corpus_replay_bench']['retriggered']} re-triggered)",
        f"  full tier profile ({m['tiers_budget']} programs): "
        f"{m['tiers_throughput']:7.1f} programs/s, tags "
        + " ".join(f"{k}={v}" for k, v in m["tier_tag_counts"].items())
        + f" (new-tag floor: {m['tier_tag_floor']})",
    ]
    return "\n".join(lines)


def check(m: dict) -> list[str]:
    """The acceptance assertions; returns human-readable failures."""
    failures = []
    if not m["identical"]:
        failures.append("serial/dedup/process results differ (determinism broken)")
    if m["dedup_speedup"] < 1.6:
        failures.append(
            f"dedup speedup {m['dedup_speedup']:.2f}x < 1.6x over serial"
        )
    if m["run_share_rate"] < 0.5:
        failures.append(
            f"run share rate {m['run_share_rate'] * 100:.1f}% < 50%"
        )
    if m["cpu_count"] >= 2 and m["process_speedup"] < 1.6:
        failures.append(
            f"process speedup {m['process_speedup']:.2f}x < 1.6x over serial "
            f"on a {m['cpu_count']}-CPU machine"
        )
    if m["loops_structural_tags"] < 1:
        failures.append(
            "loops workload produced no structural (vector/masked) tags — "
            "the tier the benchmark exists to cover did not engage"
        )
    if not m["island_identical"]:
        failures.append(
            "island campaign differs between serial and process backends "
            "(island determinism contract broken)"
        )
    if not m["tape_bench"]["identical"]:
        failures.append(
            "tape executor results differ from the tree interpreter "
            "(bit-identity broken)"
        )
    if m["tape_speedup"] < 2.5:
        failures.append(
            f"tape-reuse speedup {m['tape_speedup']:.2f}x < 2.5x "
            "over the tree interpreter"
        )
    if m["tier_tag_floor"] < 1:
        missing = [
            tag
            for tag in _NEW_TIER_TAGS
            if m["tier_tag_counts"].get(tag, 0) < 1
        ]
        failures.append(
            "full tier profile reported zero "
            + "/".join(missing)
            + " tags — a tier the profile promises never engaged"
        )
    replay = m["corpus_replay_bench"]
    if replay["retriggered"] != replay["seeds"]:
        failures.append(
            f"only {replay['retriggered']}/{replay['seeds']} corpus seeds "
            "re-triggered under the same compiler model "
            "(replay determinism contract broken)"
        )
    return failures


def bench_engine_throughput(benchmark, out_dir):
    from conftest import once, save_artifact

    m = once(benchmark, measure)
    save_artifact(out_dir, "engine_throughput.txt", render(m))
    (out_dir / "BENCH_engine.json").write_text(
        json.dumps(m, indent=2) + "\n", encoding="utf-8"
    )
    failures = check(m)
    assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="engine throughput benchmark")
    parser.add_argument("--budget", type=int, default=_BUDGET)
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write machine-readable results here (the CI artifact)",
    )
    args = parser.parse_args(argv)
    report = measure(args.budget)
    print(render(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        print(f"wrote {args.json}")
    failures = check(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
