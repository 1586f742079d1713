"""Island-model units: SUS selection, the novelty-fitness census, peer
path derivation, and the coordinator's exchange/record protocol."""

from collections import Counter

import pytest

from repro.generation.islands import (
    EMIGRANTS_PER_MERGE,
    IslandCoordinator,
    MutationFitness,
    derive_peer_paths,
    stochastic_universal_sampling,
)
from repro.generation.program import GeneratedProgram
from repro.generation.prompts import MUTATION_STRATEGIES
from repro.utils.rng import SplittableRng


class TestStochasticUniversalSampling:
    def test_deterministic_for_a_fixed_rng(self):
        a = stochastic_universal_sampling(SplittableRng(1, "sus"), [1, 2, 3], 5)
        b = stochastic_universal_sampling(SplittableRng(1, "sus"), [1, 2, 3], 5)
        assert a == b

    def test_zero_weight_entries_never_picked(self):
        for seed in range(20):
            picks = stochastic_universal_sampling(
                SplittableRng(seed, "sus"), [0.0, 1.0, 0.0], 4
            )
            assert set(picks) == {1}

    def test_picks_track_weights_proportionally(self):
        # One spin with k pointers: a weight holding half the wheel gets
        # floor(k/2) or ceil(k/2) picks — SUS's low-variance guarantee.
        counts = Counter()
        for seed in range(50):
            picks = stochastic_universal_sampling(
                SplittableRng(seed, "sus"), [1.0, 1.0, 2.0], 8
            )
            counts.update(picks)
            assert picks.count(2) == 4  # exactly half the pointers
        assert counts[0] + counts[1] == counts[2]

    def test_invalid_inputs_rejected(self):
        rng = SplittableRng(1, "sus")
        with pytest.raises(ValueError):
            stochastic_universal_sampling(rng, [1.0], 0)
        with pytest.raises(ValueError):
            stochastic_universal_sampling(rng, [0.0, 0.0], 1)
        with pytest.raises(ValueError):
            stochastic_universal_sampling(rng, [1.0, -0.5], 1)

    @pytest.mark.parametrize(
        "weights",
        [[float("nan"), 1.0], [1.0, float("nan")], [float("inf"), 1.0],
         [1.0, float("-inf"), 2.0], []],
        ids=["nan-first", "nan-last", "inf", "neg-inf", "empty"],
    )
    def test_non_finite_or_empty_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="finite"):
            stochastic_universal_sampling(SplittableRng(1, "sus"), weights, 1)


class TestMutationFitness:
    def test_novelty_decays_with_repetition(self):
        fitness = MutationFitness()
        assert fitness.observe("sig-a") == 1.0
        assert fitness.observe("sig-a") == 0.5
        assert fitness.observe("sig-a") == pytest.approx(1 / 3)
        assert fitness.observe("sig-b") == 1.0

    def test_empty_census_is_uniform(self):
        weights = MutationFitness().weights()
        assert weights == tuple(1.0 for _ in MUTATION_STRATEGIES)

    def test_credited_strategy_gains_weight(self):
        fitness = MutationFitness()
        target = MUTATION_STRATEGIES[0]
        fitness.observe("sig-a", target)
        weights = dict(zip(fitness.strategies, fitness.weights()))
        assert weights[target] == 2.0
        assert all(w == 1.0 for s, w in weights.items() if s != target)
        # uncredited observations (immigrants) only touch the census
        fitness.observe("sig-b", None)
        fitness.observe("sig-c", "not-a-strategy")
        assert dict(zip(fitness.strategies, fitness.weights())) == weights

    def test_state_round_trips(self):
        fitness = MutationFitness()
        fitness.observe("sig-a", MUTATION_STRATEGIES[0])
        fitness.observe("sig-a", MUTATION_STRATEGIES[1])
        restored = MutationFitness()
        restored.import_state(fitness.export_state())
        assert restored.census == fitness.census
        assert restored.weights() == fitness.weights()


class TestDerivePeerPaths:
    @pytest.mark.parametrize(
        "name, expected",
        [
            # the fleet's layout, the experiment runner's, and a manual one
            ("shard1_of_4.jsonl", ["shard0_of_4.jsonl", "shard1_of_4.jsonl",
                                   "shard2_of_4.jsonl", "shard3_of_4.jsonl"]),
            ("llm4fp-shard1of4.jsonl", ["llm4fp-shard0of4.jsonl",
                                        "llm4fp-shard1of4.jsonl",
                                        "llm4fp-shard2of4.jsonl",
                                        "llm4fp-shard3of4.jsonl"]),
            ("shard1.jsonl", ["shard0.jsonl", "shard1.jsonl",
                              "shard2.jsonl", "shard3.jsonl"]),
        ],
    )
    def test_known_layouts(self, tmp_path, name, expected):
        peers = derive_peer_paths(tmp_path / name, 1, 4)
        assert [p.name for p in peers] == expected
        assert all(p.parent == tmp_path for p in peers)

    def test_shard1_does_not_match_shard12(self, tmp_path):
        # the token must stop at a digit boundary: shard 1 of 16 must not
        # rewrite the "shard12" in a sibling-ish name prefix
        peers = derive_peer_paths(tmp_path / "shard12.jsonl", 12, 16)
        assert peers[0].name == "shard0.jsonl"
        with pytest.raises(ValueError, match="shard1"):
            derive_peer_paths(tmp_path / "shard12.jsonl", 1, 16)

    def test_missing_token_rejected_with_guidance(self, tmp_path):
        with pytest.raises(ValueError, match="shard2_of_4.jsonl"):
            derive_peer_paths(tmp_path / "campaign.jsonl", 2, 4)


class _StubGenerator:
    """A feedback generator double with a scripted migrant buffer."""

    name = "stub"

    def __init__(self):
        self.bound = None
        self.observed = []
        self.imported = []
        self._buffer = []

    def bind(self, shard_index, shard_count, rng_seed):
        self.bound = (shard_index, shard_count, rng_seed)

    def generate(self):
        return GeneratedProgram(source=f"p{len(self.observed)}", inputs=())

    def observe(self, outcome):
        self.observed.append(outcome)
        if getattr(outcome, "triggered", False):
            self._buffer.append(
                {"source": outcome.program.source, "signature": [[], []],
                 "strategy": None}
            )

    def export_migrants(self, limit):
        drained, self._buffer = self._buffer[:limit], []
        return drained

    def import_migrants(self, migrants):
        self.imported.append(list(migrants))


class _Outcome:
    def __init__(self, index, triggered=False):
        self.index = index
        self.triggered = triggered
        self.program = GeneratedProgram(source=f"src{index}", inputs=())


class TestIslandCoordinator:
    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="islands"):
            IslandCoordinator(_StubGenerator(), islands=0, merge_every=1, seed=1)
        with pytest.raises(ValueError, match="merge_every"):
            IslandCoordinator(_StubGenerator(), islands=1, merge_every=0, seed=1)
        with pytest.raises(ValueError, match="one island per shard"):
            IslandCoordinator(
                _StubGenerator(), islands=4, merge_every=1, seed=1,
                shard_index=0, shard_count=2,
            )
        with pytest.raises(ValueError, match="peer checkpoint path"):
            IslandCoordinator(
                _StubGenerator(), islands=2, merge_every=1, seed=1,
                shard_index=0, shard_count=2, peer_paths=["only-one"],
            )

    def test_each_island_is_bound_to_its_partition(self):
        template = _StubGenerator()
        coordinator = IslandCoordinator(
            template, islands=3, merge_every=2, seed=9
        )
        for k in range(3):
            gen = coordinator._generators[k]
            assert gen.bound == (k, 3, 9)
            assert coordinator.owner(k) == k
            assert coordinator.owner(k + 3) == k

    def test_merge_record_shape_and_cadence(self):
        coordinator = IslandCoordinator(
            _StubGenerator(), islands=2, merge_every=2, seed=1
        )
        # island 0 owns 0, 2, 4, ...: its first boundary is after its
        # 2nd owned program (budget index 2)
        assert coordinator.observe(0, _Outcome(0, triggered=True)) == []
        records = coordinator.observe(2, _Outcome(2, triggered=True))
        assert records == [
            {
                "kind": "island",
                "island": 0,
                "generation": 1,
                "after": 2,
                "migrants": [
                    {"source": "src0", "signature": [[], []], "strategy": None},
                    {"source": "src2", "signature": [[], []], "strategy": None},
                ],
            }
        ]

    def test_ladder_topology_imports_only_lower_islands(self):
        coordinator = IslandCoordinator(
            _StubGenerator(), islands=2, merge_every=1, seed=1
        )
        g0, g1 = coordinator._generators[0], coordinator._generators[1]
        coordinator.observe(0, _Outcome(0, triggered=True))
        coordinator.complete_boundary(0)
        coordinator.observe(1, _Outcome(1, triggered=True))
        coordinator.complete_boundary(1)
        assert g0.imported == []  # island 0 imports from no one
        assert g1.imported == [[{"source": "src0", "signature": [[], []],
                                 "strategy": None}]]

    def test_migrant_cap_is_emigrants_per_merge(self):
        coordinator = IslandCoordinator(
            _StubGenerator(), islands=1, merge_every=EMIGRANTS_PER_MERGE + 2,
            seed=1,
        )
        for i in range(EMIGRANTS_PER_MERGE + 2):
            records = coordinator.observe(i, _Outcome(i, triggered=True))
        assert len(records) == 1
        assert len(records[0]["migrants"]) == EMIGRANTS_PER_MERGE

    def test_feedback_free_generator_yields_empty_records(self):
        class Plain:
            def bind(self, *a):
                pass

            def observe(self, outcome):
                pass

        coordinator = IslandCoordinator(Plain(), islands=1, merge_every=2, seed=1)
        coordinator.observe(0, _Outcome(0, triggered=True))
        records = coordinator.observe(1, _Outcome(1, triggered=True))
        assert records == [
            {"kind": "island", "island": 0, "generation": 1, "after": 1,
             "migrants": []}
        ]
        coordinator.complete_boundary(1)  # no import_migrants: a no-op

    def test_resume_replays_matching_records_silently(self):
        record = {
            "kind": "island", "island": 0, "generation": 1, "after": 1,
            "migrants": [{"source": "src0", "signature": [[], []],
                          "strategy": None},
                         {"source": "src1", "signature": [[], []],
                          "strategy": None}],
        }
        coordinator = IslandCoordinator(
            _StubGenerator(), islands=1, merge_every=2, seed=1,
            existing_records=[record],
        )
        coordinator.observe(0, _Outcome(0, triggered=True))
        # already durable: nothing to append again
        assert coordinator.observe(1, _Outcome(1, triggered=True)) == []

    def test_resume_rejects_foreign_records(self):
        foreign = {
            "kind": "island", "island": 0, "generation": 1, "after": 1,
            "migrants": [{"source": "other", "signature": [[], []],
                          "strategy": None}],
        }
        coordinator = IslandCoordinator(
            _StubGenerator(), islands=1, merge_every=2, seed=1,
            existing_records=[foreign],
        )
        coordinator.observe(0, _Outcome(0, triggered=True))
        with pytest.raises(ValueError, match="island record mismatch"):
            coordinator.observe(1, _Outcome(1, triggered=True))

    def test_sharded_import_times_out_with_a_pointer(self, tmp_path):
        paths = [tmp_path / f"shard{i}.jsonl" for i in range(2)]
        coordinator = IslandCoordinator(
            _StubGenerator(), islands=2, merge_every=1, seed=1,
            shard_index=1, shard_count=2, peer_paths=paths,
            import_timeout=0.2,
        )
        coordinator.observe(1, _Outcome(1, triggered=True))
        with pytest.raises(RuntimeError, match="island 0 generation 1"):
            coordinator.complete_boundary(1)
