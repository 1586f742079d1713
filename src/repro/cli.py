"""The ``llm4fp`` command-line interface.

    llm4fp run --approach llm4fp --budget 100 --seed 1
    llm4fp serve --shards 4 --workers 2 --approach loops --budget 1000
    llm4fp tables table2 table5
    llm4fp triage campaign.jsonl
    llm4fp corpus diff corpus.jsonl campaign.jsonl
    llm4fp show-prompt grammar
"""

from __future__ import annotations

import argparse
import sys

from repro.difftest.backend import (
    BACKENDS, DEFAULT_BACKEND, BackendError, parse_jobs,
)
from repro.execution.worker import EXEC_MODES
from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig, JsonLineProgress
from repro.difftest.record import ProgramOutcome
from repro.difftest.report import CampaignReport
from repro.difftest.store import (
    CampaignStore, CampaignStoreError, _read_shard_set, load_result,
)
from repro.experiments import table2, table3, table4, table5, figure3, triage_summary
from repro.experiments.approaches import ALL_APPROACHES, make_generator
from repro.experiments.runner import ExperimentContext
from repro.experiments.settings import ExperimentSettings, parse_shard
from repro.fp.formats import Precision
from repro.generation.prompts import direct_prompt, grammar_prompt, mutation_prompt
from repro.toolchains import TIER_PROFILES, default_compilers
from repro.triage.reduce import DEFAULT_MAX_TESTS
from repro.utils.rng import SplittableRng
from repro.utils.timing import format_hms

#: Paper artefacts by name; ``python -m repro.experiments`` reads it too.
TABLES = {
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "figure3": figure3.run,
    "triage": triage_summary.run,
}


class _StreamProgress:
    """Streams per-program campaign state to stderr as the engine runs.

    One carriage-returned status line per program — running counts of
    triggering programs and inconsistent comparisons — so long campaigns
    are observable without touching the result plumbing.
    """

    def __init__(self, budget: int, stream=None) -> None:
        self.budget = budget
        self.stream = stream if stream is not None else sys.stderr
        self.triggered = 0
        self.inconsistencies = 0

    def __call__(self, index: int, outcome: ProgramOutcome) -> None:
        self.triggered += bool(outcome.triggered)
        self.inconsistencies += len(outcome.inconsistent_comparisons)
        width = len(str(self.budget))
        self.stream.write(
            f"\r[{index + 1:>{width}}/{self.budget}] "
            f"triggering {self.triggered} · inconsistencies {self.inconsistencies}"
        )
        self.stream.flush()

    def finish(self) -> None:
        self.stream.write("\n")
        self.stream.flush()


def _flag(parse):
    """An argparse ``type``: ``parse``'s ValueError refuses the flag by name."""
    def parse_flag(value: str):
        try:
            return parse(value)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from e
    return parse_flag


def _count(value: str) -> int:
    """``--budget``, ``--shards``, ``--workers``, ``--merge-every``: an integer >= 1."""
    if not value.isdigit() or int(value) < 1:
        raise ValueError(f"must be an integer >= 1, got {value!r}")
    return int(value)


def _natural(value: str) -> int:
    """``--islands``, ``--max-retries``: an integer >= 0."""
    if not value.isdigit():
        raise ValueError(f"must be an integer >= 0, got {value!r}")
    return int(value)


def _seconds(value: str) -> float:
    """``--heartbeat``, ``--stall-timeout``: a finite number > 0."""
    if not 0 < float(value) < float("inf"):
        raise ValueError(f"must be a finite number > 0, got {value!r}")
    return float(value)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.generation.islands import derive_peer_paths
    from repro.generation.program import generator_capabilities

    rng = SplittableRng(args.seed, f"cli-{args.approach}")
    generator = make_generator(args.approach, rng, tiers=args.tiers)
    corpus_path = (
        args.corpus if args.corpus is not None else ExperimentSettings().corpus_path
    )
    replay_seeds = 0
    if corpus_path:
        from repro.corpus import CorpusError, CorpusReplayGenerator, TriggerCorpus

        try:
            seeds = TriggerCorpus.load(corpus_path).seeds()
        except CorpusError as e:
            print(str(e), file=sys.stderr)
            return 2
        generator = CorpusReplayGenerator(seeds, generator)
        replay_seeds = len(seeds)
    config = CampaignConfig(budget=args.budget, seed=args.seed)
    shard_index, shard_count = args.shard
    islands = args.islands
    if islands is None:
        islands = ExperimentSettings().islands  # REPRO_ISLANDS, default 0
        if not islands and shard_count > 1:
            caps = generator_capabilities(generator)
            if caps.feedback:
                # A sharded feedback approach only works island-partitioned;
                # default to one island per shard rather than erroring out.
                islands = shard_count
                print(
                    f"note: {args.approach} is a feedback approach; running "
                    f"shard {shard_index}/{shard_count} as an island campaign "
                    f"(--islands {islands})",
                    file=sys.stderr,
                )
    merge_every = (
        args.merge_every
        if args.merge_every is not None
        else ExperimentSettings().merge_every  # REPRO_MERGE_EVERY, default 25
    )
    island_peers: tuple = ()
    if islands and shard_count > 1:
        if not args.resume:
            print(
                "sharded island campaigns need --resume PATH: island shards "
                "exchange migrants through each other's checkpoint files",
                file=sys.stderr,
            )
            return 2
        try:
            island_peers = tuple(
                str(p)
                for p in derive_peer_paths(args.resume, shard_index, shard_count)
            )
        except ValueError as e:
            print(str(e), file=sys.stderr)
            return 2
    engine_kwargs = dict(
        jobs=args.jobs,
        backend=args.backend,
        shard_index=shard_index,
        shard_count=shard_count,
        islands=islands,
        merge_every=merge_every,
        island_peers=island_peers,
    )
    if args.exec_mode is not None:  # else REPRO_EXEC_MODE / the default
        engine_kwargs["exec_mode"] = args.exec_mode
    engine_config = EngineConfig(**engine_kwargs)
    store = CampaignStore(args.resume) if args.resume else None
    progress: object | None
    if args.progress_json:
        progress = JsonLineProgress(args.budget)
    elif args.quiet:
        progress = None
    else:
        progress = _StreamProgress(args.budget)
    engine = CampaignEngine(default_compilers(tiers=args.tiers), config, engine_config)
    result = engine.run(generator, progress=progress, store=store)
    if progress is not None:
        progress.finish()
    report = CampaignReport(result)
    s = report.summary()
    print(f"approach:             {s['approach']}")
    print(f"programs:             {args.budget}")
    print(f"backend:              {args.backend}")
    if args.tiers != "baseline":
        print(f"tier profile:         {args.tiers}")
    print(f"exec mode:            {engine_config.exec_mode}")
    print(f"jobs:                 {engine_config.resolved_jobs}")
    if shard_count > 1:
        owned = len(range(shard_index, args.budget, shard_count))
        print(f"shard:                {shard_index}/{shard_count} ({owned} programs)")
    if islands:
        print(f"islands:              {islands} (merge every {merge_every})")
    if store is not None:
        print(f"checkpoint:           {store.path}")
    if corpus_path:
        print(f"corpus replay:        {replay_seeds} seed(s) from {corpus_path}")
    print(f"total comparisons:    {s['total_comparisons']:,}")
    print(f"inconsistencies:      {s['inconsistencies']:,}")
    print(f"inconsistency rate:   {s['inconsistency_rate'] * 100:.2f}%")
    print(f"triggering programs:  {s['triggering_programs']}")
    print(f"time cost:            {format_hms(s['time_seconds'])}")
    print(report.render_stages())
    _print_kinds(report)
    return 0


def _print_kinds(report: CampaignReport) -> None:
    kinds = report.kind_counts().as_labels()
    if kinds:
        print("kinds:")
        for label, count in kinds.items():
            print(f"  {label:<16} {count}")
    tags = report.tag_counts()
    if tags:
        print("structural kinds:")
        for label, count in tags.items():
            print(f"  {label:<16} {count}")


def _cmd_tables(args: argparse.Namespace) -> int:
    # Only flags the user actually passed override ExperimentSettings;
    # omitted ones fall through to the REPRO_* environment knobs.
    overrides = {
        "budget": args.budget,
        "seed": args.seed,
        "jobs": args.jobs,
        "backend": args.backend,
        "exec_mode": args.exec_mode,
        "checkpoint_dir": args.checkpoint_dir,
    }
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    settings = ExperimentSettings(**kwargs)
    # Sharded table runs (REPRO_SHARD) execute every classically shardable
    # approach and append a per-approach skip note for the rest; feedback
    # approaches can still participate as island campaigns (REPRO_ISLANDS
    # with --checkpoint-dir).
    ctx = ExperimentContext(settings)
    names = args.names or list(TABLES)
    for name in names:
        runner = TABLES.get(name)
        if runner is None:
            print(f"unknown artefact {name!r}", file=sys.stderr)
            return 2
        print(runner(ctx))
        print()
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    """Splice shard checkpoint files back into one campaign report."""
    _, _, merged = _read_shard_set(args.checkpoints)
    report = CampaignReport(merged)
    s = report.summary()
    print(f"approach:             {s['approach']}")
    print(f"programs:             {merged.budget}")
    print(f"shards merged:        {len(args.checkpoints)}")
    print(f"total comparisons:    {s['total_comparisons']:,}")
    print(f"inconsistencies:      {s['inconsistencies']:,}")
    print(f"inconsistency rate:   {s['inconsistency_rate'] * 100:.2f}%")
    print(f"triggering programs:  {s['triggering_programs']}")
    _print_kinds(report)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Supervise a sharded campaign fleet (or drain a queue of them)."""
    import asyncio

    from repro.fleet.queue import QueueError, drain_queue
    from repro.fleet.supervisor import (
        CampaignSpec,
        FleetConfig,
        FleetSupervisor,
        format_fleet_summary,
    )

    settings = ExperimentSettings()
    config = FleetConfig(
        workers=args.workers if args.workers is not None else settings.fleet_workers,
        heartbeat=(
            args.heartbeat if args.heartbeat is not None else settings.fleet_heartbeat
        ),
        stall_timeout=(
            args.stall_timeout
            if args.stall_timeout is not None
            else settings.fleet_stall_timeout
        ),
        max_retries=(
            args.max_retries
            if args.max_retries is not None
            else settings.fleet_max_retries
        ),
        chaos_kill_after=args.chaos_kill_after,
    )
    corpus_path = (
        args.corpus if args.corpus is not None else settings.corpus_path
    )
    if args.queue is not None:
        try:
            results = asyncio.run(
                drain_queue(
                    args.queue,
                    args.dir,
                    config=config,
                    chain_triage=args.triage,
                    corpus_path=corpus_path,
                )
            )
        except QueueError as e:  # raised while vetting, before any worker
            print(f"llm4fp serve: {e}", file=sys.stderr)
            return 2
    else:
        spec = CampaignSpec(
            approach=args.approach,
            budget=args.budget,
            seed=args.seed,
            backend=args.backend,
            jobs=None if args.jobs is None else str(args.jobs),
            exec_mode=args.exec_mode,
            islands=args.islands,
            merge_every=args.merge_every,
        )
        supervisor = FleetSupervisor(
            spec,
            args.shards,
            args.dir,
            config=config,
            chain_triage=args.triage,
            corpus_path=corpus_path,
        )
        results = [asyncio.run(supervisor.run())]
    for result in results:
        print(format_fleet_summary(result))
        print()
    return 0 if all(r.ok for r in results) else 1


def _parse_inputs(spec: str) -> tuple:
    """``"0.37,1.91,23"`` -> ``(0.37, 1.91, 23)`` (ints stay ints)."""
    values: list = []
    for token in spec.replace(",", " ").split():
        try:
            values.append(int(token))
        except ValueError:
            try:
                values.append(float(token))
            except ValueError as e:
                raise argparse.ArgumentTypeError(
                    f"inputs must be numbers, got {token!r}"
                ) from e
    if not values:
        raise argparse.ArgumentTypeError("inputs must name at least one value")
    return tuple(values)


def _cmd_triage(args: argparse.Namespace) -> int:
    """Reduce -> bisect -> cluster triggering programs into a ranked report."""
    from repro.generation.program import GeneratedProgram
    from repro.triage import distilled_trigger, triage_results, triage_single

    sources = bool(args.checkpoints) + (args.program is not None) + args.demo
    if sources != 1:
        print(
            "triage needs exactly one input: checkpoint file(s), "
            "--program FILE --inputs ..., or --demo",
            file=sys.stderr,
        )
        return 2
    kwargs = dict(reduce=not args.no_reduce, max_reduce_tests=args.max_reduce_tests)
    if args.checkpoints:
        results = [(path, load_result(path)) for path in args.checkpoints]
        report = triage_results(results, **kwargs)
    else:
        if args.demo:
            program, label = distilled_trigger(), "demo"
        else:
            if args.inputs is None:
                print("--program requires --inputs", file=sys.stderr)
                return 2
            with open(args.program, encoding="utf-8") as f:
                source = f.read()
            program = GeneratedProgram(source=source, inputs=args.inputs)
            label = args.program
        compilers = default_compilers(tiers=args.tiers)
        engine = CampaignEngine(compilers, CampaignConfig(budget=1))
        kwargs["compilers"] = compilers
        outcome = engine.test_program(0, program)
        if not outcome.triggered:
            print(f"{label}: no inconsistency on the given inputs", file=sys.stderr)
            return 1
        report = triage_single(outcome, label=label, **kwargs)
    text = report.render()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    """Longitudinal trigger corpus: cross-campaign root-cause memory."""
    import json as _json
    from pathlib import Path

    from repro.corpus import (
        CorpusError,
        TriggerCorpus,
        format_corpus_list,
        format_diff_report,
        format_ingest_report,
        format_seeds,
        render_signature,
    )

    try:
        if args.action == "ingest":
            if not args.checkpoints:
                print("corpus ingest needs checkpoint file(s)", file=sys.stderr)
                return 2
            all_new: set[str] = set()
            with TriggerCorpus(args.corpus) as corpus:
                for path in args.checkpoints:
                    result = load_result(path)
                    label = args.label or Path(path).name
                    report = corpus.ingest(
                        result, label, timestamp=args.timestamp
                    )
                    print(format_ingest_report(report, corpus))
                    all_new.update(report.new_keys)
            if args.out:
                lines = [render_signature(k) for k in sorted(all_new)]
                with open(args.out, "w", encoding="utf-8") as f:
                    f.write("\n".join([f"new signatures: {len(lines)}", *lines]))
                    f.write("\n")
                print(f"wrote {args.out}")
            return 0
        corpus = TriggerCorpus.load(args.corpus)
        if args.action == "diff":
            if not args.checkpoints:
                print("corpus diff needs checkpoint file(s)", file=sys.stderr)
                return 2
            outcomes = [
                o for path in args.checkpoints for o in load_result(path).outcomes
            ]
            report = corpus.diff(outcomes)
            text = format_diff_report(report, corpus, len(args.checkpoints))
            print(text)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as f:
                    f.write(text + "\n")
            return 0
        if args.action == "list":
            print(format_corpus_list(corpus))
            return 0
        # seeds
        if args.dir:
            outdir = Path(args.dir)
            outdir.mkdir(parents=True, exist_ok=True)
            manifest = []
            for position, seed in enumerate(corpus.seeds()):
                name = f"seed-{position:03d}.c"
                (outdir / name).write_text(seed.source, encoding="utf-8")
                manifest.append(
                    {
                        "file": name,
                        "signature": render_signature(seed.key),
                        "inputs": list(seed.inputs),
                        "origin": f"{seed.origin_label}#{seed.origin_index}",
                    }
                )
            with open(outdir / "seeds.json", "w", encoding="utf-8") as f:
                _json.dump(manifest, f, indent=2)
                f.write("\n")
            print(f"wrote {len(manifest)} seed(s) to {outdir}")
        else:
            print(format_seeds(corpus))
        return 0
    except (CorpusError, CampaignStoreError) as e:
        print(str(e), file=sys.stderr)
        return 2
    except OSError as e:
        print(f"corpus: {e}", file=sys.stderr)
        return 2


def _cmd_show_prompt(args: argparse.Namespace) -> int:
    if args.kind == "direct":
        print(direct_prompt(Precision.DOUBLE))
    elif args.kind == "grammar":
        print(grammar_prompt(Precision.DOUBLE))
    else:
        example = (
            "#include <stdio.h>\n#include <math.h>\n"
            "void compute(double x) { double comp = sin(x);"
            ' printf("%.17g\\n", comp); }\n'
            "int main(int argc, char **argv) { compute(atof(argv[1])); return 0; }"
        )
        print(mutation_prompt(example, Precision.DOUBLE))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="llm4fp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one approach's campaign")
    p_run.add_argument("--approach", choices=ALL_APPROACHES, default="llm4fp")
    p_run.add_argument("--budget", type=_flag(_count), default=100)
    p_run.add_argument("--seed", type=int, default=20250916)
    p_run.add_argument(
        "--backend", choices=BACKENDS, default=DEFAULT_BACKEND,
        help="fan-out: serial (inline, the default) or process (whole "
        "programs on --jobs processes; feedback and island campaigns "
        "stay inline); results are byte-identical",
    )
    p_run.add_argument(
        "--jobs", type=_flag(parse_jobs), default=1, metavar="N|auto",
        help="processes testing programs (default 1; 'auto' = "
        "one per CPU; more than one needs --backend process)",
    )
    p_run.add_argument(
        "--exec-mode", choices=EXEC_MODES, default=None, dest="exec_mode",
        help="execute-stage mode: tape (compiled) or check (tape and "
        "reference interpreter, trap on any bit of divergence); "
        "default: REPRO_EXEC_MODE or tape",
    )
    p_run.add_argument(
        "--shard", type=_flag(parse_shard), default=(0, 1), metavar="i/n",
        help="test only budget indices with index %% n == i; disjoint "
        "shards merge bit-identically (feedback approaches shard via the "
        "island model — see --islands)",
    )
    p_run.add_argument(
        "--islands", type=_flag(_natural), default=None, metavar="N",
        help="island-model generation: partition generation itself into N "
        "islands (index %% N), each evolving its own population with "
        "fitness-weighted mutation; the sharding mode that admits feedback "
        "approaches (default: REPRO_ISLANDS, or auto = shard count for a "
        "sharded feedback approach)",
    )
    p_run.add_argument(
        "--merge-every", type=_flag(_count), default=None, metavar="K", dest="merge_every",
        help="island merge-point cadence: exchange top triggers after "
        "every K owned programs (default: REPRO_MERGE_EVERY or 25)",
    )
    p_run.add_argument(
        "--resume", default=None, metavar="PATH",
        help="JSONL checkpoint file: completed programs are replayed from "
        "it, new ones appended, so an interrupted campaign continues "
        "(sharded island runs require it, with 'shard<i>' in the filename)",
    )
    p_run.add_argument(
        "--corpus", default=None, metavar="CORPUS.jsonl",
        help="replay this trigger corpus's regression seeds before the "
        "approach's own stream — every campaign opens with a regression "
        "sweep (default: REPRO_CORPUS_PATH; missing file = no seeds)",
    )
    p_run.add_argument(
        "--tiers", choices=TIER_PROFILES, default="baseline",
        help="divergence-tier profile: baseline (byte-identical to "
        "pre-registry campaigns) or full (adds the vec-libm, "
        "mixed-precision and masked-int-guard tiers to every compiler's "
        "pipeline and FP environment)",
    )
    p_run.add_argument(
        "--quiet", action="store_true",
        help="suppress the streaming per-program progress line",
    )
    p_run.add_argument(
        "--progress-json", action="store_true", dest="progress_json",
        help="emit machine-readable progress to stderr: one JSON line per "
        "completed program (what fleet worker logs record); overrides "
        "--quiet",
    )
    p_run.set_defaults(func=_cmd_run)

    p_tab = sub.add_parser("tables", help="regenerate paper tables/figures")
    p_tab.add_argument("names", nargs="*", help=f"subset of {list(TABLES)}")
    # defaults stay None so the REPRO_* environment knobs apply when a
    # flag is omitted (flags win when given)
    p_tab.add_argument(
        "--budget", type=_flag(_count), default=None,
        help="programs per approach (default: REPRO_BUDGET or 200)",
    )
    p_tab.add_argument(
        "--seed", type=int, default=None,
        help="campaign seed (default: REPRO_SEED or 20250916)",
    )
    p_tab.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="program fan-out backend, byte-identical results "
        f"(default: REPRO_BACKEND or {DEFAULT_BACKEND})",
    )
    p_tab.add_argument(
        "--jobs", type=_flag(parse_jobs), default=None, metavar="N|auto",
        help="processes testing programs, 'auto' = one per CPU; more "
        "than one needs --backend process (default: REPRO_JOBS or 1)",
    )
    p_tab.add_argument(
        "--exec-mode", choices=EXEC_MODES, default=None, dest="exec_mode",
        help="execute-stage mode: tape / check "
        "(default: REPRO_EXEC_MODE or tape)",
    )
    p_tab.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist per-approach JSONL checkpoints here; re-running with "
        "identical settings resumes instead of recomputing",
    )
    p_tab.set_defaults(func=_cmd_tables)

    p_merge = sub.add_parser(
        "merge",
        help="merge shard checkpoint files into one campaign report",
        description="Merge the JSONL checkpoints of a sharded campaign "
        "(each produced by `run --shard i/n --resume PATH`, possibly on "
        "different machines) and report the combined result — "
        "bit-identical to an unsharded run.",
    )
    p_merge.add_argument(
        "checkpoints", nargs="+", metavar="SHARD.jsonl",
        help="one completed checkpoint file per shard (all n of them)",
    )
    p_merge.set_defaults(func=_cmd_merge)

    p_serve = sub.add_parser(
        "serve",
        help="supervise a sharded campaign fleet (launch/heal/merge)",
        description="Campaign fleet supervisor: launches one `llm4fp run "
        "--shard i/n --resume` worker per shard (at most --workers "
        "concurrently), heartbeats each on its checkpoint's tail growth, "
        "kills and reassigns dead or stalled shards with bounded retries, "
        "then splices the shard checkpoints into a merged store "
        "byte-identical to an unkilled single-process run.  Every "
        "scheduling decision lands in DIR/fleet_events.jsonl.  With "
        "--queue, drains a JSONL job file instead, one campaign per line "
        "(see docs/fleet.md).  Exits 0 only if every campaign merged.",
    )
    p_serve.add_argument(
        "--dir", required=True, metavar="DIR",
        help="fleet working directory: shard checkpoints, worker logs, "
        "fleet_events.jsonl and merged.jsonl accumulate here",
    )
    p_serve.add_argument(
        "--shards", type=_flag(_count), default=4, metavar="N",
        help="shard count the budget splits into (default 4)",
    )
    p_serve.add_argument(
        "--workers", type=_flag(_count), default=None, metavar="N",
        help="concurrent shard workers (default: REPRO_FLEET_WORKERS or 2)",
    )
    p_serve.add_argument("--approach", choices=ALL_APPROACHES, default="loops",
                         help="approach to run (default loops; feedback "
                         "approaches run as island campaigns automatically)")
    p_serve.add_argument("--budget", type=_flag(_count), default=100)
    p_serve.add_argument("--seed", type=int, default=20250916)
    p_serve.add_argument(
        "--islands", type=_flag(_natural), default=None, metavar="N",
        help="run workers as island shards (N must equal --shards); "
        "default: worker auto-detection (islands for feedback approaches)",
    )
    p_serve.add_argument(
        "--merge-every", type=_flag(_count), default=None, metavar="K", dest="merge_every",
        help="island merge-point cadence forwarded to workers "
        "(default: each worker's REPRO_MERGE_EVERY or 25)",
    )
    p_serve.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="worker engine backend (default: each worker's own default)",
    )
    p_serve.add_argument(
        "--jobs", type=_flag(parse_jobs), default=None, metavar="N|auto",
        help="per-worker matrix jobs (default: each worker's own default)",
    )
    p_serve.add_argument(
        "--exec-mode", choices=EXEC_MODES, default=None, dest="exec_mode",
        help="worker execute-stage mode: tape / check (default: each worker's own default)",
    )
    p_serve.add_argument(
        "--queue", default=None, metavar="JOBS.jsonl",
        help="drain a JSONL job queue instead of running one campaign; "
        "each line is {\"approach\": ..., \"budget\": ..., \"shards\": ...}",
    )
    p_serve.add_argument(
        "--triage", action="store_true",
        help="chain `llm4fp triage` over each merged store",
    )
    p_serve.add_argument(
        "--corpus", default=None, metavar="CORPUS.jsonl",
        help="chain a trigger-corpus ingest over each merged store (after "
        "--triage when both are given); never-seen signatures land in "
        "DIR/corpus_new.txt (default: REPRO_CORPUS_PATH)",
    )
    p_serve.add_argument(
        "--heartbeat", type=_flag(_seconds), default=None, metavar="SECONDS",
        help="checkpoint-tail poll interval "
        "(default: REPRO_FLEET_HEARTBEAT or 2.0)",
    )
    p_serve.add_argument(
        "--stall-timeout", type=_flag(_seconds), default=None, metavar="SECONDS",
        dest="stall_timeout",
        help="no-row-growth threshold before a live worker is killed and "
        "its shard reassigned (default: REPRO_FLEET_STALL or 300)",
    )
    p_serve.add_argument(
        "--max-retries", type=_flag(_natural), default=None, metavar="N", dest="max_retries",
        help="respawns per shard after its first death before the fleet "
        "settles for a partial verdict (default: REPRO_FLEET_RETRIES or 2)",
    )
    p_serve.add_argument(
        "--chaos-kill-after", type=int, default=None, metavar="ROWS",
        dest="chaos_kill_after",
        help="fault-injection drill: the first worker launched SIGKILLs "
        "itself right after its ROWS-th checkpoint row; watch the fleet "
        "repair it",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_triage = sub.add_parser(
        "triage",
        help="reduce, bisect and cluster triggering programs",
        description="Automatic triage of campaign findings: delta-debug "
        "each triggering program down to a minimal trigger, bisect the "
        "responsible toolchain's pass pipeline and FP-environment deltas "
        "to name what flipped the comparison, and dedupe everything into "
        "a ranked report.  Input is one or more campaign checkpoints "
        "(written by `run --resume` or `tables --checkpoint-dir`), a raw "
        "C file with --program/--inputs, or the built-in --demo trigger.  "
        "The report is deterministic: two runs over the same input are "
        "byte-identical.",
    )
    p_triage.add_argument(
        "checkpoints", nargs="*", metavar="CHECKPOINT.jsonl",
        help="campaign checkpoint file(s); triggers from all of them are "
        "clustered together",
    )
    p_triage.add_argument(
        "--program", default=None, metavar="FILE.c",
        help="triage one raw trigger program instead of a checkpoint",
    )
    p_triage.add_argument(
        "--inputs", type=_parse_inputs, default=None, metavar="V,V,...",
        help="input vector for --program (one value per compute parameter)",
    )
    p_triage.add_argument(
        "--demo", action="store_true",
        help="triage the built-in distilled demonstration trigger",
    )
    p_triage.add_argument(
        "--no-reduce", action="store_true",
        help="skip delta-debugging reduction (bisect + cluster only)",
    )
    p_triage.add_argument(
        "--tiers", choices=TIER_PROFILES, default="baseline",
        help="divergence-tier profile for --program/--demo (checkpoints "
        "carry their own profile and are triaged under it automatically)",
    )
    p_triage.add_argument(
        "--max-reduce-tests", type=int, default=DEFAULT_MAX_TESTS, metavar="N",
        help="oracle-evaluation budget per reduction "
        f"(default {DEFAULT_MAX_TESTS})",
    )
    p_triage.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    p_triage.set_defaults(func=_cmd_triage)

    p_corpus = sub.add_parser(
        "corpus",
        help="longitudinal trigger corpus: ingest / diff / list / seeds",
        description="Cross-campaign root-cause memory.  `ingest` folds a "
        "campaign checkpoint's triggers into an append-only corpus keyed "
        "by cluster signature (recording first/last-seen provenance, the "
        "compiler-model fingerprint, and the smallest trigger as a "
        "regression seed); `diff` reports ONLY signatures the corpus has "
        "never seen, so nightlies stop re-announcing known root causes; "
        "`list` summarizes every signature's lifetime; `seeds` exports "
        "the regression seeds `llm4fp run --corpus` replays.  All output "
        "is deterministic: same corpus + same checkpoints = same bytes.",
    )
    p_corpus.add_argument(
        "action", choices=("ingest", "diff", "list", "seeds"),
        help="ingest: fold checkpoints in (appends); diff: report "
        "never-seen signatures (read-only); list: per-signature summary; "
        "seeds: print or export regression seeds",
    )
    p_corpus.add_argument(
        "corpus", metavar="CORPUS.jsonl",
        help="corpus file (ingest creates it when missing; diff on a "
        "missing corpus treats every signature as new)",
    )
    p_corpus.add_argument(
        "checkpoints", nargs="*", metavar="CHECKPOINT.jsonl",
        help="campaign checkpoint file(s) for ingest / diff",
    )
    p_corpus.add_argument(
        "--label", default=None, metavar="NAME",
        help="provenance label recorded with the ingest "
        "(default: each checkpoint's file name)",
    )
    p_corpus.add_argument(
        "--timestamp", default="", metavar="STAMP",
        help="operator-supplied timestamp string recorded with the ingest "
        "(default empty: corpus bytes stay content-deterministic)",
    )
    p_corpus.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the new-signature report to PATH (ingest/diff)",
    )
    p_corpus.add_argument(
        "--dir", default=None, metavar="DIR",
        help="seeds: write seed-NNN.c files plus a seeds.json manifest "
        "here instead of printing",
    )
    p_corpus.set_defaults(func=_cmd_corpus)

    p_show = sub.add_parser("show-prompt", help="print one of the paper's prompts")
    p_show.add_argument("kind", choices=("direct", "grammar", "mutation"))
    p_show.set_defaults(func=_cmd_show_prompt)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BackendError, CampaignStoreError) as e:
        print(f"llm4fp {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
