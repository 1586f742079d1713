"""Shared experiment orchestration: run each approach's campaign once,
reuse it across every table/figure that consumes it."""

from __future__ import annotations

from pathlib import Path

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import EngineConfig
from repro.difftest.harness import run_campaign
from repro.difftest.record import CampaignResult
from repro.difftest.report import CampaignReport
from repro.difftest.store import CampaignStore
from repro.experiments.approaches import make_generator
from repro.experiments.settings import ExperimentSettings, parse_shard
from repro.generation.islands import derive_peer_paths
from repro.generation.program import generator_capabilities
from repro.toolchains import default_compilers
from repro.utils.rng import SplittableRng

__all__ = ["ExperimentContext"]


class ExperimentContext:
    """Caches one campaign per approach for a settings snapshot."""

    def __init__(self, settings: ExperimentSettings | None = None) -> None:
        self.settings = settings or ExperimentSettings()
        self._results: dict[str, CampaignResult] = {}

    def engine_config(self, store: CampaignStore | None = None) -> EngineConfig:
        s = self.settings
        shard_index, shard_count = parse_shard(s.shard)
        island_peers: tuple = ()
        if s.islands and shard_count > 1 and store is not None:
            # Island shards find each other's merge-point exports through
            # the per-shard checkpoint filenames.
            island_peers = tuple(
                str(p)
                for p in derive_peer_paths(store.path, shard_index, shard_count)
            )
        return EngineConfig(
            jobs=s.jobs,
            backend=s.backend,
            shard_index=shard_index,
            shard_count=shard_count,
            islands=s.islands,
            merge_every=s.merge_every,
            island_peers=island_peers,
            exec_mode=s.exec_mode,
        )

    def skip_reason(self, approach: str) -> str | None:
        """Why this approach cannot run under the current sharding (None = runnable).

        Sharded table runs execute every classically shardable approach
        and skip the rest with a note: a feedback approach's program
        stream depends on verdicts other shards compute, so sharding it
        needs the island model — which, across shards, also needs a
        checkpoint dir to exchange migrants through.
        """
        s = self.settings
        _, shard_count = parse_shard(s.shard)
        if shard_count <= 1:
            return None
        if s.islands:
            if s.checkpoint_dir is None:
                return (
                    "sharded island campaigns need --checkpoint-dir: island "
                    "shards exchange migrants through sibling checkpoints"
                )
            return None
        probe = make_generator(approach, SplittableRng(0, "capability-probe"))
        if generator_capabilities(probe).feedback:
            return (
                "feedback approach: its program stream depends on verdicts "
                "other shards compute; shard it as an island campaign "
                "(REPRO_ISLANDS=<shard count>) or run it unsharded"
            )
        return None

    def skip_notes(self, approaches) -> list[str]:
        """One renderable note per approach skipped under the current shard."""
        notes = []
        for approach in approaches:
            reason = self.skip_reason(approach)
            if reason is not None:
                notes.append(f"note: skipped {approach} on this shard — {reason}")
        return notes

    def runnable(self, approaches) -> list[str]:
        """The subset of ``approaches`` that runs under the current settings."""
        return [a for a in approaches if self.skip_reason(a) is None]

    def store(self, approach: str) -> CampaignStore | None:
        """This approach's checkpoint store, if persistence is configured.

        One JSONL file per (approach, shard) under ``checkpoint_dir``; a
        re-run with identical settings resumes from it.
        """
        s = self.settings
        if s.checkpoint_dir is None:
            return None
        shard_index, shard_count = parse_shard(s.shard)
        suffix = f"-shard{shard_index}of{shard_count}" if shard_count > 1 else ""
        return CampaignStore(Path(s.checkpoint_dir) / f"{approach}{suffix}.jsonl")

    def campaign(self, approach: str) -> CampaignResult:
        if approach not in self._results:
            s = self.settings
            rng = SplittableRng(s.seed, f"approach-{approach}")
            generator = make_generator(
                approach, rng, model_latency=s.model_llm_latency
            )
            config = CampaignConfig(budget=s.budget, levels=s.levels, seed=s.seed)
            store = self.store(approach)
            self._results[approach] = run_campaign(
                generator,
                default_compilers(),
                config,
                engine_config=self.engine_config(store),
                store=store,
            )
        return self._results[approach]

    def report(self, approach: str) -> CampaignReport:
        return CampaignReport(self.campaign(approach))
