"""Repository benchmark: default-configuration campaigns, end to end and per layer.

    python3 perfbench/run.py --workload varity-serial --seed 1 --seconds 15 --trace 0

Every campaign runs in a fresh Python process (``campaign.py``), so the
per-process tape cache and the process pool start cold, as they do for
``llm4fp run``; ``REPRO_*`` variables are removed from its environment.
A run measures whole passes over the workload's pool of campaign seeds,
in an order drawn from ``--seed``, until ``--seconds`` have elapsed.

Every program's outcome is checked against the committed reference
digests in ``refs/``; ``loops-process``'s checkpoint file is checked
against the one ``llm4fp run --resume`` writes.  End-to-end times are
corrected for the host's speed, which a fixed pure-Python probe reads
before and after every program (see ``PROBE_REF_MS``).  The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` programs, and the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``).  A readable summary
goes to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PASS_MODULES, ROOT_SPAN
from workloads import BUDGET, DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"
#: Scratch space inside the checkout: checkpoints and span files.
WORK = ROOT / ".perfbench"
#: A run gives up (exit 1, no result) this many seconds after it starts.
DEADLINE_S = 170.0
#: The host-speed probe's time in ms (``campaign.probe_ms``) on the
#: reference host, a 2-vCPU 2.0 GHz Xeon, while its neighbours are quiet.
#: End-to-end times are reported as they would read on that host.
PROBE_REF_MS = 0.25
#: Probes on either side of a program that set its host speed.
PROBE_WINDOW = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "programs_per_s": "programs/s",
    "program_ms_p50": "ms",
    "program_ms_p90": "ms",
    "cpu_ms_per_program": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A campaign process failed, timed out or printed no result."""


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["TMPDIR"] = str(WORK)
    return env


def launch(
    workload: Workload,
    campaign_seed: int,
    budget: int,
    trace: bool,
    deadline: float,
    extra: tuple[str, ...] = (),
) -> dict:
    """Run one campaign in a fresh process; return its report.

    ``setup_s`` is measured from just before the process is spawned until
    the child enters ``CampaignEngine.run`` (one monotonic clock).
    """
    stem = WORK / f"{workload.name}-{campaign_seed}"
    cmd = [
        sys.executable,
        str(HERE / "campaign.py"),
        "--workload", workload.name,
        "--campaign-seed", str(campaign_seed),
        "--budget", str(budget),
        *extra,
    ]
    if workload.checkpoint:
        cmd += ["--checkpoint", f"{stem}.jsonl"]
    if trace:
        cmd += ["--trace", "--spans-out", f"{stem}.trace.json"]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        env=_child_env(),
        cwd=ROOT,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload.name} campaign {campaign_seed} timed out") from None
    finally:
        # Reap anything the campaign left in its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload.name} campaign {campaign_seed} exited with {proc.returncode}"
        )
    report = json.loads(lines[-1])
    report["setup_s"] = report["entered"] - spawned
    return report


def load_refs(workload: Workload) -> dict:
    path = REFS / f"{workload.name}.json"
    if not path.exists():
        return {"budget": 0, "campaigns": {}}
    return json.loads(path.read_text(encoding="utf-8"))


def check_outputs(reports: list[dict], refs: dict, budget: int) -> tuple[int, int, list]:
    """Count (attempted, failed) programs; list campaign seeds left unchecked.

    A program fails when its outcome digest differs from the reference or
    when it is missing from the report.  A checkpoint that is not
    byte-identical to the one ``llm4fp run --resume`` writes fails every
    program of its campaign.
    """
    attempted = failed = 0
    unchecked = []
    for report in reports:
        attempted += budget
        ref = refs["campaigns"].get(str(report["campaign_seed"]))
        if ref is None or len(ref["digests"]) < budget:
            unchecked.append(report["campaign_seed"])
            continue
        digests = report["digests"]
        if (
            "checkpoint_sha256" in report
            and budget == refs["budget"]
            and report["checkpoint_sha256"] != ref["checkpoint_sha256"]
        ):
            failed += budget
            continue
        failed += sum(
            1 for i in range(budget) if i >= len(digests) or digests[i] != ref["digests"][i]
        )
    return attempted, failed, unchecked


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
) -> tuple[list[dict], list[dict]]:
    """Run whole passes over the campaign pool until ``seconds`` elapsed.

    Returns the untraced reports and, with ``trace``, the traced reports.
    A traced run covers the first half (rounded up) of the shuffled pool,
    pairing every campaign with an untraced twin and alternating which
    goes first, so it takes about as long as an untraced run.
    """
    WORK.mkdir(exist_ok=True)
    order = list(workload.campaign_seeds)
    random.Random(seed).shuffle(order)
    if trace:
        order = order[: (len(order) + 1) // 2]
    started = time.monotonic()
    deadline = started + DEADLINE_S
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        for position, campaign_seed in enumerate(order):
            modes = (False, True) if trace else (False,)
            if trace and position % 2:
                modes = (True, False)
            for with_trace in modes:
                report = launch(workload, campaign_seed, BUDGET, with_trace, deadline)
                (traced if with_trace else plain).append(report)
        if time.monotonic() - started >= seconds:
            return plain, traced


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, Harrell-Davis estimate.

    A beta-weighted mean of the order statistics (weights taken at the
    sample midpoints), so that one sample moving past another near the
    percentile shifts the estimate a little, not by the gap between them.
    """
    ordered = sorted(values)
    n = len(ordered)
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [
        (a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
        for i in range(n)
    ]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def _speed(probes_ms: list[float]) -> float:
    """Host speed relative to the reference host, from nearby probe times."""
    return statistics.median(probes_ms) / PROBE_REF_MS


def corrected_latencies(report: dict) -> list[float]:
    """A campaign's per-program latencies at reference host speed.

    Program ``k`` runs between probes ``k`` and ``k + 1``; its latency is
    divided by the host speed the :data:`PROBE_WINDOW` probes on either
    side of it read.
    """
    probes = report["probes_ms"]
    return [
        ms / _speed(probes[max(0, k + 1 - PROBE_WINDOW) : k + 1 + PROBE_WINDOW])
        for k, ms in enumerate(report["latencies_ms"])
    ]


def end_to_end(reports: list[dict]) -> dict[str, float]:
    """End-to-end metrics of untraced campaigns, at reference host speed.

    Run and CPU time of a campaign are scaled by the same factor as the
    sum of its latencies; set-up by the speed the first probes read.
    """
    programs = sum(r["programs"] for r in reports)
    scaled = [corrected_latencies(r) for r in reports]
    factors = [sum(s) / sum(r["latencies_ms"]) for s, r in zip(scaled, reports)]
    latencies = [ms for s in scaled for ms in s]
    return {
        "setup_s": statistics.median(
            r["setup_s"] / _speed(r["probes_ms"][:PROBE_WINDOW]) for r in reports
        ),
        "programs_per_s": programs / sum(r["run_s"] * f for r, f in zip(reports, factors)),
        "program_ms_p50": _quantile(latencies, 50),
        "program_ms_p90": _quantile(latencies, 90),
        "cpu_ms_per_program": 1e3
        * sum(r["cpu_s"] * f for r, f in zip(reports, factors))
        / programs,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in reports) / 1024,
    }


def _measured_rate(reports: list[dict]) -> float:
    """Programs per second of wall-clock, uncorrected."""
    return sum(r["programs"] for r in reports) / sum(r["run_s"] for r in reports)


def per_layer(traced: list[dict], plain: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per program, of the traced campaigns."""
    programs = sum(r["programs"] for r in traced)
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    for r in traced:
        for name, (calls, own, inclusive) in r["spans"].items():
            total = spans.setdefault(name, [0, 0.0, 0.0])
            total[0] += calls
            total[1] += own
            total[2] += inclusive
        for name, value in r["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def span(name: str) -> tuple[int, float, float]:
        """(calls, self seconds, inclusive seconds) of one span name."""
        return spans.get(name, (0, 0.0, 0.0))

    def ms(name: str) -> tuple[float, str]:
        return 1e3 * span(name)[1] / programs, "ms"

    def per_program(name: str) -> tuple[float, str]:
        return span(name)[0] / programs, "count"

    def ratio(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0), "ratio"

    def total(key: str) -> int:
        return sum(r[key] for r in traced)

    lex = span("frontend.lex")
    run = span(ROOT_SPAN)
    return {
        "generation.self_ms": ms("generation.generate"),
        "generation.llm_complete_ms": ms("generation.llm_complete"),
        "generation.mutate_ms": ms("generation.mutate"),
        "generation.mutate_calls": per_program("generation.mutate"),
        "generation.parse_calls": (total("generation_parses") / programs, "count"),
        "frontend.parse_ms": ms("frontend.parse"),
        "frontend.parse_calls": per_program("frontend.parse"),
        "frontend.lex_ms": ms("frontend.lex"),
        "frontend.tokens_per_s": (
            counts.get("frontend.lex", 0) / lex[2] if lex[2] else 0.0,
            "1/s",
        ),
        "frontend.sema_ms": ms("frontend.sema"),
        "frontend.lower_ms": ms("frontend.lower"),
        "frontend.cuda_ms": ms("frontend.cuda"),
        **{f"ir.passes.{m}_ms": ms(f"ir.passes.{m}") for m in PASS_MODULES},
        "toolchains.compile_ms": ms("toolchains.compile"),
        "toolchains.compile_calls": per_program("toolchains.compile"),
        "toolchains.cache_hit_rate": ratio(
            total("cache_hits"), total("cache_hits") + total("cache_misses")
        ),
        "toolchains.cache.fingerprint_ms": ms("toolchains.cache.fingerprint"),
        "execution.tape_compile_ms": ms("execution.tape_compile"),
        "execution.tape_compiles": per_program("execution.tape_compile"),
        "execution.tape_run_ms": ms("execution.tape_run"),
        "execution.tape_runs": per_program("execution.tape_run"),
        "execution.tree_run_ms": ms("execution.tree_run"),
        "execution.run_share_rate": ratio(total("shared_runs"), total("total_runs")),
        "difftest.backend.dispatch_ms": ms("difftest.backend.dispatch"),
        "difftest.backend.tasks": (
            counts.get("difftest.backend.dispatch", 0) / programs,
            "count",
        ),
        "tiers.shape_vector_ms": ms("tiers.shape_vector"),
        "tiers.shape_vector_calls": per_program("tiers.shape_vector"),
        "tiers.shape_use_ratio": ratio(
            total("inconsistent"), span("tiers.shape_vector")[0]
        ),
        "difftest.classify.devec_fp_ms": ms("difftest.classify.devec_fp"),
        "difftest.store.append_ms": ms("difftest.store.append"),
        "difftest.store.fsync_ms": ms("difftest.store.fsync"),
        "difftest.store.fsyncs": per_program("difftest.store.fsync"),
        "difftest.store.bytes_per_program": (
            sum(r.get("checkpoint_bytes", 0) for r in traced) / programs,
            "B",
        ),
        "difftest.engine.self_ms": ms(ROOT_SPAN),
        "trace.attributed_share": ratio(run[2] - run[1], run[2]),
        "trace.overhead": ratio(_measured_rate(traced), _measured_rate(plain)),
    }


def _summary(workload: Workload, reports: list[dict], metrics: dict, extra: str) -> str:
    latencies = sum(len(r["latencies_ms"]) for r in reports)
    lines = [
        f"{workload.name}: {len(reports)} campaigns x {BUDGET} programs, "
        f"{latencies} latency samples{extra}"
    ]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<36} {value:>14.4f} {unit}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        plain, traced = measure(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    refs = load_refs(workload)
    attempted, failed, unchecked = check_outputs(plain + traced, refs, BUDGET)
    if unchecked:
        print(
            f"perfbench: no reference digests for campaign seed(s) {unchecked}; "
            "their outputs are unchecked",
            file=sys.stderr,
        )
    if args.trace:
        metrics = per_layer(traced, plain)
        extra = " (traced, each paired with an untraced twin)"
    else:
        metrics = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in end_to_end(plain).items()
        }
        extra = (
            f", uncorrected {_measured_rate(plain):.4f} programs/s at host speed "
            f"{_speed([p for r in plain for p in r['probes_ms']]):.4f}"
        )
    print(_summary(workload, traced or plain, metrics, extra), file=sys.stderr)
    print(f"  failed/attempted programs: {failed}/{attempted}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not unchecked,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
