"""Run one benchmark campaign in a fresh process and print its measurements.

    python3 perfbench/campaign.py --workload varity-serial --campaign-seed 20250916

The campaign is built exactly as ``llm4fp run`` builds it, through the
public entry points only: ``make_generator``, ``default_compilers``,
``CampaignEngine(...).run(generator, progress=..., store=...)`` and
``CampaignStore``.  The last line of standard output is one JSON object:
the time set-up ended (``time.monotonic``, comparable with the parent's
clock), per-program latencies, host-speed probe times, CPU and memory use,
the SHA-256 of every program's ``encode_outcome`` row and, with
``--trace``, the per-span totals of :mod:`tracer`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import BUDGET, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def outcome_digest(row: dict) -> str:
    """SHA-256 of one ``encode_outcome`` row, serialized as the store writes it."""
    return hashlib.sha256(
        json.dumps(row, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_kb() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def probe_ms() -> float:
    """Time a fixed pure-Python loop, in ms: the host-speed probe.

    The loop does the interpreter's bread-and-butter work (integer
    arithmetic, dict stores) and never touches the package under test, so
    a change to ``src/`` cannot move it; only the host's speed can.
    """
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(3000):
        total += i * i
        table[i & 63] = total
    return (time.perf_counter() - start) * 1e3


def run_campaign(
    workload_name: str,
    campaign_seed: int,
    budget: int,
    trace: bool = False,
    exec_mode: str | None = None,
    checkpoint: Path | None = None,
    spans_out: Path | None = None,
) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    from repro.difftest.config import CampaignConfig
    from repro.difftest.engine import CampaignEngine, EngineConfig
    from repro.difftest.store import CampaignStore, encode_outcome
    from repro.experiments.approaches import make_generator
    from repro.toolchains import default_compilers
    from repro.utils.rng import SplittableRng

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {ROOT / 'src'}")
    workload = WORKLOADS[workload_name]
    tracer = None
    if trace:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()

    approach = workload.approach
    generator = make_generator(approach, SplittableRng(campaign_seed, f"cli-{approach}"))
    engine_kwargs = dict(backend=workload.backend, jobs=workload.jobs)
    if exec_mode is not None:
        engine_kwargs["exec_mode"] = exec_mode
    engine = CampaignEngine(
        default_compilers(),
        CampaignConfig(budget=budget, seed=campaign_seed),
        EngineConfig(**engine_kwargs),
    )
    store = None
    if workload.checkpoint:
        checkpoint.unlink(missing_ok=True)
        store = CampaignStore(checkpoint)

    stamps: list[float] = []
    inconsistent = 0
    # An untraced campaign runs the host-speed probe before the first
    # program and after every program; ``paused`` is the time spent in
    # probes, which every stamp and total leaves out.
    probes: list[float] = []
    paused = 0.0

    def progress(index, outcome) -> None:
        nonlocal inconsistent, paused
        now = time.monotonic()
        stamps.append(now - paused)
        inconsistent += len(outcome.inconsistent_comparisons)
        if tracer is not None:
            tracer.program = index + 1
        else:
            probes.append(probe_ms())
            paused += time.monotonic() - now

    entered = time.monotonic()
    if tracer is None:
        probes.append(probe_ms())
    cpu_before = _cpu_seconds()
    started = time.monotonic()
    result = engine.run(generator, progress=progress, store=store)
    finished = time.monotonic()
    cpu = _cpu_seconds() - cpu_before - paused

    edges = [started] + stamps
    report = {
        "workload": workload_name,
        "campaign_seed": campaign_seed,
        "programs": len(result.outcomes),
        "entered": entered,
        "run_s": finished - started - paused,
        "latencies_ms": [(b - a) * 1e3 for a, b in zip(edges, edges[1:])],
        "probes_ms": probes,
        "cpu_s": cpu,
        "peak_rss_kb": _peak_rss_kb(),
        "digests": [outcome_digest(encode_outcome(o)) for o in result.outcomes],
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "shared_runs": result.shared_runs,
        "total_runs": result.total_runs,
        "inconsistent": inconsistent,
    }
    if store is not None:
        data = checkpoint.read_bytes()
        report["checkpoint_sha256"] = hashlib.sha256(data).hexdigest()
        report["checkpoint_bytes"] = len(data)
    if tracer is not None:
        tracer.active = False
        tracer.check_layers(workload_name, (ROOT_SPAN,) + workload.layers)
        report["spans"] = tracer.totals
        report["counts"] = tracer.counts
        report["generation_parses"] = tracer.generation_parses
        if spans_out is not None:
            tracer.write(spans_out)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--campaign-seed", type=int, required=True)
    parser.add_argument("--budget", type=int, default=BUDGET)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--exec-mode", default=None)
    parser.add_argument("--checkpoint", type=Path, default=None)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)
    report = run_campaign(
        args.workload,
        args.campaign_seed,
        args.budget,
        trace=args.trace,
        exec_mode=args.exec_mode,
        checkpoint=args.checkpoint,
        spans_out=args.spans_out,
    )
    print(json.dumps(report, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
