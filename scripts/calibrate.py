"""Calibration: run small campaigns for all approaches and print the
shape-relevant numbers next to the paper's targets."""

import sys
import time

sys.path.insert(0, "src")

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine
from repro.difftest.report import CampaignReport
from repro.experiments.approaches import APPROACHES, make_generator
from repro.toolchains import default_compilers
from repro.utils.rng import SplittableRng

BUDGET = int(sys.argv[1]) if len(sys.argv) > 1 else 100

PAPER = {
    "varity": 11.93,
    "direct-prompt": 14.23,
    "grammar-guided": 16.47,
    "llm4fp": 29.33,
}

for approach in APPROACHES:
    t0 = time.time()
    rng = SplittableRng(20250916, f"approach-{approach}")
    gen = make_generator(approach, rng)
    result = CampaignEngine(default_compilers(), CampaignConfig(budget=BUDGET)).run(gen)
    report = CampaignReport(result)
    dt = time.time() - t0
    n_compile_fail = sum(
        1 for o in result.outcomes if not all(o.compiled.values()) or not o.compiled
    )
    n_trap = sum(
        1
        for o in result.outcomes
        if o.compiled and all(o.compiled.values()) and not all(o.ran.values())
    )
    print(
        f"{approach:>15}: rate={result.inconsistency_rate*100:6.2f}% "
        f"(paper {PAPER[approach]:.2f}%) incons={result.inconsistencies:5d} "
        f"trigger_progs={result.triggering_programs:4d}/{BUDGET} "
        f"badcompile={n_compile_fail:3d} traps={n_trap:3d} [{dt:.1f}s]"
    )
    if approach in ("varity", "llm4fp"):
        kinds = report.kind_counts().as_labels()
        print(f"   kinds: {kinds}")
        t5 = report.vs_o0_nofma_totals()
        print(f"   vs_o0_nofma totals: { {k: f'{v*100:.2f}%' for k, v in t5.items()} }")
        pt = report.pair_totals()
        print(f"   pair totals: { {f'{a},{b}': f'{v*100:.2f}%' for (a, b), v in pt.items()} }")
        ds = report.digit_stats_overall()
        print(f"   digit diffs: min={ds.min} max={ds.max} avg={ds.avg:.2f}")
