"""Divergence-tier profiles through the engine, store and triage wiring."""

import json

import pytest

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine
from repro.difftest.report import CampaignReport
from repro.difftest.store import CampaignStore, CampaignStoreError, load_result
from repro.generation.loops import LoopReductionGenerator
from repro.tiers import (
    MASKED_INT_GUARD,
    MASKED_LANE,
    MIXED_PRECISION,
    VEC_LIBM,
    VECTOR_REDUCTION,
)
from repro.toolchains import ClangCompiler, GccCompiler, NvccCompiler, default_compilers
from repro.utils.rng import SplittableRng


def full_generator(seed=20250916):
    # The exact generator `llm4fp run --approach loops --tiers full` builds:
    # the full-profile workload shares over the cli rng stream.
    from repro.experiments.approaches import make_generator

    return make_generator("loops", SplittableRng(seed, "cli-loops"), tiers="full")


def run_full(budget=60, seed=20250916, store=None):
    engine = CampaignEngine(
        default_compilers(tiers="full"), CampaignConfig(budget=budget, seed=seed)
    )
    return engine.run(full_generator(seed), store=store)


@pytest.fixture(scope="module")
def full_result(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiers") / "full.jsonl"
    result = run_full(store=CampaignStore(path))
    return path, result


class TestEngineProfiles:
    def test_mixed_profiles_rejected(self):
        compilers = [GccCompiler(tiers="full"), ClangCompiler(), NvccCompiler()]
        with pytest.raises(ValueError, match="tier profile"):
            CampaignEngine(compilers, CampaignConfig(budget=1))

    def test_result_records_the_profile(self, full_result):
        _, result = full_result
        assert result.tiers == "full"

    def test_full_profile_reports_every_new_tag(self, full_result):
        # Pinned exactly: a reordered tier table or an extractor that
        # changed its shapes moves these counts.
        _, result = full_result
        assert CampaignReport(result).tag_counts() == {
            MASKED_INT_GUARD: 6,
            MASKED_LANE: 5,
            MIXED_PRECISION: 3,
            VEC_LIBM: 4,
            VECTOR_REDUCTION: 15,
        }

    def test_baseline_compilers_never_emit_the_new_tags(self):
        engine = CampaignEngine(
            default_compilers(), CampaignConfig(budget=10, seed=20250916)
        )
        result = engine.run(full_generator())  # tier workloads, baseline toolchains
        tags = CampaignReport(result).tag_counts()
        assert VEC_LIBM not in tags
        assert MIXED_PRECISION not in tags
        assert MASKED_INT_GUARD not in tags


class TestStoreTiers:
    def test_full_profile_header_round_trips(self, full_result):
        path, result = full_result
        header = json.loads(path.read_text().splitlines()[0])
        assert header["tiers"] == "full"
        loaded = load_result(path)
        assert loaded.tiers == "full"
        assert loaded.inconsistencies == result.inconsistencies

    def test_baseline_header_bytes_are_unchanged(self, tmp_path):
        # The "tiers" key is written only when non-default, so pre-registry
        # checkpoints and fresh baseline checkpoints stay byte-compatible.
        path = tmp_path / "base.jsonl"
        CampaignEngine(default_compilers(), CampaignConfig(budget=2, seed=7)).run(
            LoopReductionGenerator(SplittableRng(7, "cli-loops")),
            store=CampaignStore(path),
        )
        header = json.loads(path.read_text().splitlines()[0])
        assert "tiers" not in header
        assert load_result(path).tiers == "baseline"

    def test_resume_under_a_different_profile_is_rejected(self, full_result):
        path, _ = full_result
        engine = CampaignEngine(
            default_compilers(), CampaignConfig(budget=60, seed=20250916)
        )
        with pytest.raises(CampaignStoreError, match="different campaign"):
            engine.run(full_generator(), store=CampaignStore(path))

    def test_resume_same_profile_replays(self, full_result):
        path, result = full_result
        resumed = run_full(store=CampaignStore(path))
        assert resumed.tiers == "full"
        assert resumed.inconsistencies == result.inconsistencies


class TestTriageTiers:
    def test_triage_rebuilds_full_profile_compilers(self, full_result):
        from repro.triage import triage_results

        path, result = full_result
        outcome = next(o for o in result.outcomes if o.triggered)
        small = type(result)(
            approach=result.approach,
            budget=1,
            levels=result.levels,
            compilers=result.compilers,
            outcomes=[outcome],
            tiers=result.tiers,
        )
        report = triage_results([(str(path), small)], reduce=False)
        assert report.triggers == 1

    def test_triage_rejects_mixed_profiles(self, full_result):
        from repro.triage import triage_results

        path, result = full_result
        base = type(result)(
            approach="x", budget=1, levels=result.levels,
            compilers=result.compilers,
        )
        with pytest.raises(ValueError, match="tier profile"):
            triage_results([("a", result), ("b", base)], reduce=False)
