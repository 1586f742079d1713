"""Island campaigns through the engine: the determinism contract.

Fixed ``(seed, islands, merge_every)`` must yield byte-identical merged
checkpoints no matter the backend, the shard topology (one process vs
one store per island), or where a crash interrupted the run.
"""

import json

import pytest

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig
from repro.difftest.store import (
    CampaignStore,
    load_result,
    merge_shard_stores,
    read_island_records,
)
from repro.experiments.approaches import make_generator
from repro.generation.islands import derive_peer_paths
from repro.toolchains import default_compilers
from repro.utils.rng import SplittableRng

BUDGET = 12
SEED = 7
ISLANDS = 2
MERGE_EVERY = 3


def _generator(seed=SEED):
    return make_generator("llm4fp", SplittableRng(seed, "cli-llm4fp"))


def _run(path, *, budget=BUDGET, seed=SEED, backend="serial", jobs=1,
         shard=(0, 1), islands=ISLANDS, merge_every=MERGE_EVERY, peers=()):
    engine = CampaignEngine(
        default_compilers(),
        CampaignConfig(budget=budget, seed=seed),
        EngineConfig(
            backend=backend,
            jobs=jobs,
            shard_index=shard[0],
            shard_count=shard[1],
            islands=islands,
            merge_every=merge_every,
            island_peers=peers,
        ),
    )
    return engine.run(_generator(seed), store=CampaignStore(path))


@pytest.fixture(scope="module")
def unsharded(tmp_path_factory):
    """The reference island checkpoint every variant is audited against."""
    path = tmp_path_factory.mktemp("islands") / "golden.jsonl"
    _run(path)
    return path


class TestBackendIdentity:
    @pytest.mark.parametrize(
        "backend, jobs", [("serial", 1), ("process", 2)]
    )
    def test_backends_agree_byte_for_byte(self, tmp_path, unsharded, backend, jobs):
        path = tmp_path / f"{backend}.jsonl"
        _run(path, backend=backend, jobs=jobs)
        assert path.read_bytes() == unsharded.read_bytes()


class TestShardedIslands:
    def test_sequential_shards_merge_byte_identically(self, tmp_path, unsharded):
        # Strictly sequential shard runs — the worst-case schedule the
        # ladder topology must tolerate: island k only ever waits on
        # boundaries islands j < k already wrote.
        paths = [tmp_path / f"shard{k}.jsonl" for k in range(ISLANDS)]
        for k in range(ISLANDS):
            peers = tuple(
                str(p) for p in derive_peer_paths(paths[k], k, ISLANDS)
            )
            _run(paths[k], shard=(k, ISLANDS), peers=peers)
        merged = merge_shard_stores(paths, tmp_path / "merged.jsonl")
        assert merged.read_bytes() == unsharded.read_bytes()

    def test_sharded_islands_without_store_rejected(self):
        engine = CampaignEngine(
            default_compilers(),
            CampaignConfig(budget=BUDGET, seed=SEED),
            EngineConfig(shard_index=0, shard_count=ISLANDS, islands=ISLANDS),
        )
        with pytest.raises(ValueError, match="checkpoint store"):
            engine.run(_generator())

    def test_classic_sharding_of_feedback_generator_rejected(self):
        engine = CampaignEngine(
            default_compilers(),
            CampaignConfig(budget=BUDGET, seed=SEED),
            EngineConfig(shard_index=0, shard_count=2),
        )
        with pytest.raises(ValueError, match="feedback.*--islands 2"):
            engine.run(_generator())

    def test_island_peers_require_islands(self):
        with pytest.raises(ValueError, match="island_peers"):
            EngineConfig(island_peers=("a.jsonl",))

    def test_island_shard_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one island per shard"):
            EngineConfig(shard_index=0, shard_count=2, islands=4)


class TestResume:
    def test_truncated_store_resumes_byte_identically(self, tmp_path, unsharded):
        # Chop the checkpoint just past an island record (simulating a
        # crash between a merge point and the next program): the resumed
        # run replays the boundary and reproduces the exact file.
        full = unsharded.read_bytes()
        lines = full.splitlines(keepends=True)
        kinds = [json.loads(line).get("kind") for line in lines]
        cut = kinds.index("island") + 1
        assert cut < len(lines)
        path = tmp_path / "resume.jsonl"
        path.write_bytes(b"".join(lines[: cut + 1]))
        _run(path)
        assert path.read_bytes() == full

    def test_record_lost_with_its_boundary_outcome_is_recomputed(
        self, tmp_path, unsharded
    ):
        # Crash *before* the boundary outcome was durable: outcome and
        # island record are both missing and both get regenerated.
        full = unsharded.read_bytes()
        lines = full.splitlines(keepends=True)
        cut = [json.loads(line).get("kind") for line in lines].index("island")
        path = tmp_path / "resume.jsonl"
        path.write_bytes(b"".join(lines[:cut - 1]))
        _run(path)
        assert path.read_bytes() == full

    def test_resume_with_wrong_island_shape_names_the_field(
        self, tmp_path, unsharded
    ):
        path = tmp_path / "resume.jsonl"
        path.write_bytes(unsharded.read_bytes())
        with pytest.raises(Exception, match="merge_every"):
            _run(path, merge_every=MERGE_EVERY + 1)


class TestCheckpointShape:
    def test_header_names_the_island_shape(self, unsharded):
        header = json.loads(unsharded.read_text().splitlines()[0])
        assert header["islands"] == ISLANDS
        assert header["merge_every"] == MERGE_EVERY
        # classic campaigns write the pre-v4 implied identity
        assert EngineConfig().islands == 0

    def test_island_records_sit_after_their_boundary_outcome(self, unsharded):
        records = [json.loads(line) for line in unsharded.read_text().splitlines()]
        for pos, record in enumerate(records):
            if record.get("kind") != "island":
                continue
            prev = records[pos - 1]
            assert prev["kind"] == "outcome"
            assert prev["index"] == record["after"]
            assert record["after"] % ISLANDS == record["island"]

    def test_read_island_records_and_load_result_agree(self, unsharded):
        records = read_island_records(unsharded)
        # budget 12, 2 islands x 6 owned, a boundary every 3: 4 records
        assert [(r["island"], r["generation"]) for r in records] == [
            (0, 1), (1, 1), (0, 2), (1, 2)
        ]
        result = load_result(unsharded)
        assert [o.index for o in result.outcomes] == list(range(BUDGET))

    def test_read_island_records_missing_file(self, tmp_path):
        assert read_island_records(tmp_path / "nope.jsonl") == []

    def test_island_run_differs_from_uniform_run(self, tmp_path, unsharded):
        # the point of the exercise: fitness-guided island evolution is a
        # different (not byte-equal) stream than uniform mutation
        path = tmp_path / "uniform.jsonl"
        _run(path, islands=0)
        assert path.read_bytes() != unsharded.read_bytes()
