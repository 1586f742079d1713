"""Self-tests of the benchmark itself (not part of the repository's test suite).

    python3 perfbench/selftest.py

Short campaigns (the first programs of each workload's first pool
campaign) check that tracing only observes, that the deterministic
counters repeat exactly, that checkpoints match ``llm4fp run --resume``,
that the tracer fails loudly, and that every name is well formed.
"""

from __future__ import annotations

import json
import re
import sys
import time
import unittest

import tracer
from make_refs import cli_checkpoint
from run import (
    DEADLINE_S,
    END_TO_END_UNITS,
    ROOT,
    WORK,
    check_outputs,
    end_to_end,
    launch,
    load_refs,
    per_layer,
)
from workloads import WORKLOADS

#: Programs per self-test campaign: a prefix of the reference campaign.
BUDGET = 12

#: Per-layer counters that must repeat exactly between two traced runs.
DETERMINISTIC = (
    "frontend.parse_calls",
    "generation.parse_calls",
    "toolchains.compile_calls",
    "execution.tape_compiles",
    "execution.tape_runs",
    "tiers.shape_vector_calls",
    "difftest.backend.tasks",
    "difftest.store.fsyncs",
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(ROOT / "src"))


def _campaign(workload, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    seed = workload.campaign_seeds[0]
    return launch(workload, seed, BUDGET, trace, time.monotonic() + DEADLINE_S)


class TracedRuns(unittest.TestCase):
    """Per workload: one untraced and two traced campaigns."""

    runs: dict = {}

    @classmethod
    def setUpClass(cls) -> None:
        for name, workload in WORKLOADS.items():
            cls.runs[name] = (
                _campaign(workload, False),
                _campaign(workload, True),
                _campaign(workload, True),
            )

    def test_tracing_only_observes(self) -> None:
        for name, (plain, first, second) in self.runs.items():
            with self.subTest(workload=name):
                self.assertEqual(plain["digests"], first["digests"])
                self.assertEqual(plain["digests"], second["digests"])
                attempted, failed, unchecked = check_outputs(
                    [plain, first], load_refs(WORKLOADS[name]), BUDGET
                )
                self.assertEqual((attempted, failed, unchecked), (2 * BUDGET, 0, []))

    def test_deterministic_counters_repeat(self) -> None:
        for name, (plain, first, second) in self.runs.items():
            with self.subTest(workload=name):
                a = per_layer([first], [plain])
                b = per_layer([second], [plain])
                for counter in DETERMINISTIC:
                    self.assertEqual(a[counter], b[counter], counter)

    def test_attribution(self) -> None:
        for name, (plain, first, _) in self.runs.items():
            with self.subTest(workload=name):
                share, _ = per_layer([first], [plain])["trace.attributed_share"]
                self.assertGreaterEqual(share, 0.95)

    def test_checkpoint_matches_cli(self) -> None:
        workload = WORKLOADS["loops-process"]
        seed = workload.campaign_seeds[0]
        ours = (WORK / f"{workload.name}-{seed}.jsonl").read_bytes()
        self.assertEqual(ours, cli_checkpoint(workload, seed, BUDGET))


class Tracer(unittest.TestCase):
    def test_missing_entry_point_fails_loudly(self) -> None:
        saved = tracer.TARGETS
        tracer.TARGETS = (("frontend.parse", "repro.frontend.parser", "parse_gone"),)
        try:
            with self.assertRaisesRegex(tracer.TraceError, "parse_gone"):
                tracer.Tracer().install()
        finally:
            tracer.TARGETS = saved

    def test_silent_layer_fails_loudly(self) -> None:
        with self.assertRaisesRegex(tracer.TraceError, "frontend.cuda"):
            tracer.Tracer().check_layers("w", ("frontend.cuda",))


class Names(unittest.TestCase):
    def test_names_are_well_formed_and_match_benchmark_json(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared_e2e = [m["name"] for m in spec["end_to_end"]]
        declared_layers = [m["name"] for m in spec["per_layer"]]
        declared_workloads = [w["name"] for w in spec["workloads"]]
        for name in declared_e2e + declared_layers + declared_workloads:
            self.assertRegex(name, NAME)
        self.assertEqual(sorted(declared_workloads), sorted(WORKLOADS))
        self.assertEqual(declared_e2e, list(END_TO_END_UNITS))
        report = {
            "programs": 1, "run_s": 1.0, "latencies_ms": [1.0, 2.0], "setup_s": 1.0,
            "probes_ms": [0.25, 0.25, 0.25],
            "cpu_s": 1.0, "peak_rss_kb": 1024, "spans": {tracer.ROOT_SPAN: [1, 0.1, 1.0]},
            "counts": {}, "generation_parses": 0, "cache_hits": 0, "cache_misses": 1,
            "shared_runs": 0, "total_runs": 1, "inconsistent": 0,
        }
        self.assertEqual(list(end_to_end([report])), declared_e2e)
        for metric in spec["end_to_end"]:
            self.assertEqual(END_TO_END_UNITS[metric["name"]], metric["unit"])
        self.assertEqual(list(per_layer([report], [report])), declared_layers)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, (_, unit) in per_layer([report], [report]).items():
            self.assertEqual(units[name], unit, name)


if __name__ == "__main__":
    unittest.main()
