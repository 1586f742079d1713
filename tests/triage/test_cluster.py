"""Clusterer + report + CLI: dedup, ranking, and byte-level stability
across backends and shards."""

import pytest

from repro.cli import main as cli_main
from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig
from repro.difftest.report import CampaignReport
from repro.difftest.store import CampaignStore, load_result, merge_shard_stores
from repro.experiments.approaches import make_generator
from repro.toolchains import default_compilers
from repro.triage import triage_campaign, triage_results
from repro.utils.rng import SplittableRng

APPROACH = "grammar-guided"  # feedback-free: shardable
BUDGET = 30
SEED = 7


def _generator():
    return make_generator(APPROACH, SplittableRng(SEED, f"triage-{APPROACH}"))


def _campaign(engine_config=None, store=None):
    engine = CampaignEngine(
        default_compilers(),
        CampaignConfig(budget=BUDGET, seed=SEED),
        engine_config,
    )
    return engine.run(_generator(), store=store)


@pytest.fixture(scope="module")
def baseline_report():
    result = _campaign()
    report = triage_campaign(result, reduce=False)
    assert report.triggers > 0
    return report


def test_clusters_dedupe_triggers(baseline_report):
    total = sum(c.count for c in baseline_report.clusters)
    assert total == baseline_report.triggers
    assert 0 < len(baseline_report.clusters) <= baseline_report.triggers
    # Ranked: counts never increase down the list.
    counts = [c.count for c in baseline_report.clusters]
    assert counts == sorted(counts, reverse=True)


def test_every_cluster_names_a_cause(baseline_report):
    for cluster in baseline_report.clusters:
        assert cluster.responsibles  # a pass label or "environment(...)"
        assert cluster.kinds
        assert cluster.cells
        rep = cluster.representative
        assert rep in cluster.entries


def test_report_render_is_deterministic(baseline_report):
    assert baseline_report.render() == baseline_report.render()
    # And a freshly recomputed campaign + triage produces the same bytes.
    again = triage_campaign(_campaign(), reduce=False)
    assert again.render() == baseline_report.render()


def test_clusters_stable_across_backends(baseline_report):
    pooled = _campaign(EngineConfig(jobs=2, backend="process"))
    report = triage_campaign(pooled, reduce=False)
    assert report.render() == baseline_report.render()


def test_clusters_stable_across_shards(baseline_report, tmp_path):
    paths = [tmp_path / f"shard{i}.jsonl" for i in range(2)]
    for i, path in enumerate(paths):
        _campaign(EngineConfig(shard_index=i, shard_count=2), CampaignStore(path))
    merged = load_result(merge_shard_stores(paths, tmp_path / "merged.jsonl"))
    report = triage_campaign(merged, reduce=False)
    assert report.render() == baseline_report.render()


def test_campaign_report_triage_facade(baseline_report):
    report = CampaignReport(_campaign()).triage(reduce=False)
    assert report.render() == baseline_report.render()


def test_multi_campaign_triage_merges_findings():
    result = _campaign()
    report = triage_results(
        [("first", result), ("second", result)], reduce=False
    )
    assert report.campaigns == ("first", "second")
    # The same root causes found twice collapse into the same clusters,
    # each twice as big.
    single = triage_campaign(result, reduce=False)
    assert len(report.clusters) == len(single.clusters)
    assert [c.count for c in report.clusters] == [
        2 * c.count for c in single.clusters
    ]


# -- the CLI ---------------------------------------------------------------------


def test_cli_demo_names_pass_and_env_delta(capsys):
    assert cli_main(["triage", "--demo"]) == 0
    out = capsys.readouterr().out
    assert "nvcc:fma-contract" in out
    assert "libm: glibc -> cuda" in out
    assert "reduction:" in out  # strictly smaller program was found
    assert "TRIAGE REPORT" in out


def test_cli_demo_is_byte_identical(capsys):
    assert cli_main(["triage", "--demo"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["triage", "--demo"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_checkpoint_flow(tmp_path, capsys):
    checkpoint = tmp_path / "campaign.jsonl"
    assert (
        cli_main(
            [
                "run",
                "--approach",
                APPROACH,
                "--budget",
                "12",
                "--seed",
                str(SEED),
                "--quiet",
                "--resume",
                str(checkpoint),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert load_result(checkpoint).triggering_outcomes  # triggers round-trip
    out_path = tmp_path / "report.txt"
    assert (
        cli_main(
            ["triage", str(checkpoint), "--no-reduce", "--out", str(out_path)]
        )
        == 0
    )
    capsys.readouterr()
    text = out_path.read_text()
    assert "TRIAGE REPORT" in text
    assert str(checkpoint) in text


def test_cli_rejects_ambiguous_inputs(capsys):
    assert cli_main(["triage"]) == 2
    assert cli_main(["triage", "x.jsonl", "--demo"]) == 2
    assert cli_main(["triage", "--program", "x.c"]) == 2  # missing --inputs
    capsys.readouterr()


def test_cli_program_file(tmp_path, capsys):
    from repro.triage import DISTILLED_SOURCE

    path = tmp_path / "trigger.c"
    path.write_text(DISTILLED_SOURCE)
    assert (
        cli_main(
            ["triage", "--program", str(path), "--inputs", "0.37,1.91,23",
             "--no-reduce"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "nvcc:fma-contract" in out
