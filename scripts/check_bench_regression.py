"""Benchmark-regression gate for CI.

Compares a fresh ``BENCH_engine.json`` (written by
``benchmarks/bench_engine.py --json``) against the committed baseline and
fails when any gated higher-is-better metric drops more than the
threshold (default 30%).

Gated metrics (all higher-is-better):

* ``dedup_speedup`` — the dedup engine vs the serial loop.  A pure
  ratio, so it transfers across machines of different absolute speed.
  This is the **hard gate**: a drop below baseline x (1 - threshold)
  fails the job on any machine.
* ``configs.dedup.throughput`` — absolute programs/sec of the full
  engine.  Catches regressions that slow serial and engine alike (which
  a ratio hides), but absolute wall-clock does not transfer across
  machines — a slow CI runner is not a code regression.  By default a
  drop below the floor only *warns*; pass ``--strict`` to make it fail
  (sensible when comparing runs from the same machine, e.g. against the
  previous run's artifact).
* ``tape_speedup`` — one reused tape per kernel vs the tree interpreter
  over the workload's kernel matrix.  A ratio of two measurements on the
  same machine, so it transfers; enforced as a hard gate alongside
  ``dedup_speedup``.
* ``loops_throughput`` — absolute programs/sec of the loops workload
  (the vector + masking tier: if-convert/unroll/widening in the compile
  stage, lane math in the execute stage).  Warn-only for the same
  absolute-wall-clock reason; it tracks the tier's cost as it grows.
* ``loops_tape_throughput`` — the same loops campaign under the default
  tape executor; warn-only, absolute.
* ``island_throughput`` — absolute programs/sec of the llm4fp island
  campaign (fitness census + SUS strategy selection + merge-point
  migrant exchange in the generate stage); warn-only, absolute.  The
  island determinism contract itself is asserted inside the benchmark,
  not gated here.
* ``corpus_replay_overhead`` — per-program throughput of the campaign
  behind the corpus regression prelude, relative to the bare campaign
  (1.0 = the prelude is free).  A ratio of two runs on the same
  machine, but of a tiny prelude over a small workload, so it is noisy
  on shared runners — warn-only.  That every replayed seed re-triggers
  is asserted inside the benchmark, not gated here.
* ``tiers_throughput`` — absolute programs/sec of the full-tier-profile
  loops campaign (vec-libm environments, mixed-precision and
  integer-guard widening); warn-only, absolute.
* ``tier_tag_floor`` — minimum count across the three new structural
  tags in the full-tier leg.  Warn-only here (counts are a coverage
  signal, not a speed one — a drop flags a generator/policy change
  starving a tier); that the floor is *nonzero* is asserted inside the
  benchmark itself.

Usage::

    python scripts/check_bench_regression.py BENCH_engine.json
    python scripts/check_bench_regression.py BENCH_engine.json --strict
    python scripts/check_bench_regression.py BENCH_engine.json --update-baseline

Exit status 0 = within budget, 1 = regression, 2 = usage/format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent.parent / "benchmarks" / "BENCH_engine_baseline.json"

#: machine-transferable ratios: always enforced
HARD_METRICS = ("dedup_speedup", "tape_speedup")
#: absolute wall-clock numbers: warn-only unless --strict
SOFT_METRICS = (
    "configs.dedup.throughput",
    "loops_throughput",
    "loops_tape_throughput",
    "island_throughput",
    "corpus_replay_overhead",
    "tiers_throughput",
    "tier_tag_floor",
)
GATED_METRICS = HARD_METRICS + SOFT_METRICS


def _lookup(data: dict, dotted: str):
    node = data
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    return node


def check(
    current: dict, baseline: dict, threshold: float, strict: bool = False
) -> tuple[list[str], list[str]]:
    """(failures, warnings) for gated metrics below
    ``baseline * (1 - threshold)``; soft metrics only fail when strict."""
    failures: list[str] = []
    warnings: list[str] = []
    for metric in GATED_METRICS:
        try:
            base = float(_lookup(baseline, metric))
        except KeyError:
            continue  # baseline predates this metric; nothing to gate
        now = float(_lookup(current, metric))
        floor = base * (1.0 - threshold)
        if now < floor:
            message = (
                f"{metric}: {now:.2f} is below {floor:.2f} "
                f"(baseline {base:.2f}, allowed regression {threshold:.0%})"
            )
            if metric in HARD_METRICS or strict:
                failures.append(message)
            else:
                warnings.append(message + " [absolute metric, warn-only]")
    return failures, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="fresh BENCH_engine.json to check")
    parser.add_argument(
        "--baseline", default=str(DEFAULT_BASELINE),
        help=f"committed baseline (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.30,
        help="max allowed fractional regression per metric (default 0.30)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also fail (not just warn) on absolute-throughput regressions",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="overwrite the baseline with the fresh results instead of gating",
    )
    args = parser.parse_args(argv)
    try:
        current = json.loads(Path(args.results).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read results {args.results}: {e}", file=sys.stderr)
        return 2
    if args.update_baseline:
        Path(args.baseline).write_text(
            json.dumps(current, indent=2) + "\n", encoding="utf-8"
        )
        print(f"baseline updated: {args.baseline}")
        return 0
    try:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read baseline {args.baseline}: {e}", file=sys.stderr)
        return 2
    failures, warnings = check(current, baseline, args.threshold, args.strict)
    for metric in GATED_METRICS:
        try:
            base, now = _lookup(baseline, metric), _lookup(current, metric)
            print(f"{metric}: baseline {base:.2f} -> current {now:.2f}")
        except KeyError:
            print(f"{metric}: not in baseline (skipped)")
    for warning in warnings:
        print(f"WARNING: {warning}", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("benchmark within regression budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
