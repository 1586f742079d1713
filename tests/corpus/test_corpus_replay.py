"""The corpus-replay generator: seeds first, lifecycle protocol,
bind-partition disjointness, byte-identical campaign resume."""

import copy
import json

import pytest

from corpus_testlib import trigger_outcome
from repro.corpus import CorpusReplayGenerator, TriggerCorpus
from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig
from repro.difftest.store import CampaignStore, load_result
from repro.experiments.approaches import make_generator
from repro.generation.program import GeneratedProgram, generator_capabilities
from repro.toolchains import default_compilers
from repro.utils.rng import SplittableRng


def _corpus_seeds(tmp_path, tags=("t-a", "t-b", "t-c")):
    path = tmp_path / "corpus.jsonl"
    with TriggerCorpus(path) as corpus:
        corpus.ingest(
            [
                trigger_outcome(i, tag=tag, source=f"void compute(double x) {{ /* {tag} */ }}")
                for i, tag in enumerate(tags)
            ],
            "fixture",
        )
    return TriggerCorpus.load(path).seeds()


def _varity(seed=3):
    return make_generator("varity", SplittableRng(seed, "corpus-varity"))


class TestWrapper:
    def test_name_and_capabilities_mirror_inner(self, tmp_path):
        seeds = _corpus_seeds(tmp_path)
        wrapped = CorpusReplayGenerator(seeds, _varity())
        assert wrapped.name == "corpus-replay+varity"
        assert not generator_capabilities(wrapped).feedback

        feedback = CorpusReplayGenerator(
            seeds, make_generator("llm4fp", SplittableRng(1, "x"))
        )
        assert generator_capabilities(feedback).feedback

    def test_seeds_replay_before_the_inner_stream(self, tmp_path):
        seeds = _corpus_seeds(tmp_path)
        wrapped = CorpusReplayGenerator(seeds, _varity())
        plain = _varity()
        first = [wrapped.generate() for _ in range(len(seeds))]
        assert [p.source for p in first] == [s.source for s in seeds]
        assert all(p.meta["strategy"] == "corpus-replay" for p in first)
        assert first[0].meta["corpus_key"] == seeds[0].key
        assert first[0].meta["origin"] == "fixture#0"
        # after the prelude the wrapper is exactly the inner approach
        after = [wrapped.generate() for _ in range(4)]
        expected = [plain.generate() for _ in range(4)]
        assert [p.source for p in after] == [p.source for p in expected]

    def test_empty_corpus_is_a_transparent_wrapper(self, tmp_path):
        wrapped = CorpusReplayGenerator([], _varity())
        plain = _varity()
        got = [wrapped.generate().source for _ in range(4)]
        want = [plain.generate().source for _ in range(4)]
        assert got == want

    def test_seeds_remaining_counts_down(self, tmp_path):
        seeds = _corpus_seeds(tmp_path)
        wrapped = CorpusReplayGenerator(seeds, _varity())
        assert wrapped.seeds_remaining == 3
        wrapped.generate()
        assert wrapped.seeds_remaining == 2
        for _ in range(5):
            wrapped.generate()
        assert wrapped.seeds_remaining == 0


class TestBind:
    def test_whole_stream_bind_is_identity(self, tmp_path):
        seeds = _corpus_seeds(tmp_path)
        bound = CorpusReplayGenerator(seeds, _varity())
        bound.bind(0, 1, 42)
        unbound = CorpusReplayGenerator(seeds, _varity())
        got = [bound.generate().source for _ in range(5)]
        want = [unbound.generate().source for _ in range(5)]
        assert got == want

    def test_partitions_are_disjoint_and_exhaustive(self, tmp_path):
        seeds = _corpus_seeds(tmp_path, tags=("t-a", "t-b", "t-c", "t-d", "t-e"))
        n = 2
        replayed: list[list[str]] = []
        for k in range(n):
            gen = CorpusReplayGenerator(seeds, _varity())
            gen.bind(k, n, 42)
            replayed.append(
                [gen.generate().source for _ in range(gen.seeds_remaining)]
            )
        assert replayed[0] == [seeds[0].source, seeds[2].source, seeds[4].source]
        assert replayed[1] == [seeds[1].source, seeds[3].source]
        assert not set(replayed[0]) & set(replayed[1])
        assert sorted(replayed[0] + replayed[1]) == sorted(s.source for s in seeds)

    def test_rebind_resets_the_prelude(self, tmp_path):
        seeds = _corpus_seeds(tmp_path)
        gen = CorpusReplayGenerator(seeds, _varity())
        gen.generate()
        gen.bind(0, 1, 42)
        assert gen.seeds_remaining == 3

    @pytest.mark.parametrize("partition", [(-1, 2), (2, 2), (0, 0)])
    def test_invalid_partition_rejected(self, tmp_path, partition):
        gen = CorpusReplayGenerator(_corpus_seeds(tmp_path), _varity())
        with pytest.raises(ValueError, match="partition"):
            gen.bind(*partition, 42)


class TestLifecycle:
    def test_observe_reaches_the_inner_generator(self, tmp_path):
        seen = []

        class Recorder:
            name = "recorder"

            def generate(self):
                return GeneratedProgram(source="s", inputs=())

            def observe(self, outcome):
                seen.append(outcome)

        gen = CorpusReplayGenerator(_corpus_seeds(tmp_path), Recorder())
        outcome = trigger_outcome(0)
        gen.observe(outcome)
        assert seen == [outcome]

    def test_export_import_resumes_seed_position(self, tmp_path):
        seeds = _corpus_seeds(tmp_path)
        a = CorpusReplayGenerator(seeds, _varity())
        a.generate()
        a.generate()
        state = json.loads(json.dumps(a.export_state()))
        b = CorpusReplayGenerator(seeds, _varity())
        b.import_state(state)
        got = [b.generate().source for _ in range(4)]
        want = [a.generate().source for _ in range(4)]
        assert got == want

    def test_getattr_forwards_public_names_only(self, tmp_path):
        class Inner:
            name = "inner"
            flavour = "salty"

            def generate(self):
                return GeneratedProgram(source="s", inputs=())

        gen = CorpusReplayGenerator([], Inner())
        assert gen.flavour == "salty"
        with pytest.raises(AttributeError):
            gen._private_probe  # noqa: B018 — the raise is the assertion

    def test_deepcopy_safe(self, tmp_path):
        # IslandCoordinator deep-copies its template generator; the
        # __getattr__ passthrough must not hijack the copy protocol.
        gen = CorpusReplayGenerator(_corpus_seeds(tmp_path), _varity())
        gen.generate()
        clone = copy.deepcopy(gen)
        assert clone.generate().source == gen.generate().source


class TestCampaignResume:
    class _Dead(RuntimeError):
        pass

    def _kill_after(self, n):
        remaining = [n]

        def progress(index, outcome):
            remaining[0] -= 1
            if remaining[0] == 0:
                raise self._Dead(index)

        return progress

    def _real_seeds(self, tmp_path):
        # seeds harvested from a real campaign, so replaying them through
        # the engine exercises the full compile+execute matrix
        ckpt = tmp_path / "harvest.jsonl"
        self._engine().run(_varity(), store=CampaignStore(ckpt))
        with TriggerCorpus(tmp_path / "corpus.jsonl") as corpus:
            corpus.ingest(load_result(ckpt).outcomes, "harvest")
        seeds = TriggerCorpus.load(tmp_path / "corpus.jsonl").seeds()
        assert len(seeds) >= 2
        return seeds

    def _engine(self, budget=12):
        return CampaignEngine(
            default_compilers(),
            CampaignConfig(budget=budget, seed=3),
            EngineConfig(),
        )

    def test_killed_replay_campaign_resumes_byte_identically(self, tmp_path):
        seeds = self._real_seeds(tmp_path)
        budget = 8

        straight = tmp_path / "straight.jsonl"
        self._engine(budget).run(
            CorpusReplayGenerator(seeds, _varity(seed=9)),
            store=CampaignStore(straight),
        )

        resumed = tmp_path / "resumed.jsonl"
        with pytest.raises(self._Dead):
            self._engine(budget).run(
                CorpusReplayGenerator(seeds, _varity(seed=9)),
                progress=self._kill_after(4),
                store=CampaignStore(resumed),
            )
        self._engine(budget).run(
            CorpusReplayGenerator(seeds, _varity(seed=9)),
            store=CampaignStore(resumed),
        )
        assert resumed.read_bytes() == straight.read_bytes()

    def test_replay_campaign_header_names_the_wrapper(self, tmp_path):
        seeds = self._real_seeds(tmp_path)
        path = tmp_path / "run.jsonl"
        self._engine(6).run(
            CorpusReplayGenerator(seeds, _varity(seed=9)),
            store=CampaignStore(path),
        )
        header = json.loads(path.read_text().splitlines()[0])
        assert header["approach"] == "corpus-replay+varity"

    def test_replayed_seeds_carry_their_origin_in_the_checkpoint(self, tmp_path):
        seeds = self._real_seeds(tmp_path)
        path = tmp_path / "run.jsonl"
        self._engine(6).run(
            CorpusReplayGenerator(seeds, _varity(seed=9)),
            store=CampaignStore(path),
        )
        outcomes = load_result(path).outcomes
        prelude = outcomes[: len(seeds)]
        assert all(
            o.program.meta.get("strategy") == "corpus-replay" for o in prelude
        )
        assert all(
            o.program.meta.get("origin", "").startswith("harvest#")
            for o in prelude
        )
        # Same compiler model, so every replayed seed re-triggers.
        assert all(o.triggered for o in prelude)
