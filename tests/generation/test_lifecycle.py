"""The generator lifecycle protocol: declared capabilities, bind
partitioning, export/import state round-trips, and the hard error that
replaced the pre-lifecycle ``use_feedback`` deprecation bridge."""

import json
import warnings

import pytest

from repro.difftest.record import ComparisonRecord, ProgramOutcome
from repro.experiments.approaches import ALL_APPROACHES, make_generator
from repro.generation.program import GeneratorCapabilities, generator_capabilities
from repro.toolchains import OptLevel
from repro.utils.rng import SplittableRng


def _generator(approach, seed=7):
    return make_generator(approach, SplittableRng(seed, f"lifecycle-{approach}"))


def _programs(gen, n):
    return [(p.source, p.inputs) for p in (gen.generate() for _ in range(n))]


def _triggering_outcome(program, index=0):
    """A minimal triggered verdict for feeding ``observe``."""
    return ProgramOutcome(
        index=index,
        program=program,
        triggered=True,
        compiled={"gcc/O3": True, "clang/O3": True},
        ran={"gcc/O3": True, "clang/O3": True},
        signatures={"gcc/O3": "a", "clang/O3": "b"},
        values={"gcc/O3": 1.0, "clang/O3": 2.0},
        comparisons=[
            ComparisonRecord(
                index, "gcc", "clang", OptLevel.O3, False,
                value_a=1.0, value_b=2.0, digit_diff=13,
            )
        ],
    )


class TestCapabilities:
    @pytest.mark.parametrize("approach", ALL_APPROACHES)
    def test_every_approach_declares_capabilities(self, approach):
        caps = generator_capabilities(_generator(approach))
        assert isinstance(caps, GeneratorCapabilities)
        # Only the paper's feedback loop feeds verdicts back; everything
        # is shardable — feedback via islands, the rest classically.
        assert caps.feedback == (approach == "llm4fp")
        assert caps.shardable

    @pytest.mark.parametrize("approach", ALL_APPROACHES)
    def test_lifecycle_generators_emit_no_deprecation_warning(self, approach):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            generator_capabilities(_generator(approach))

    def test_use_feedback_probe_is_a_hard_error(self):
        # The PR-8 attribute-probe bridge lasted exactly one release;
        # a bare use_feedback now names the migration instead of guessing
        # sharding semantics from it.
        class Legacy:
            name = "legacy"
            use_feedback = True

        with pytest.raises(TypeError, match="use_feedback"):
            generator_capabilities(Legacy())

        class LegacyOff:
            use_feedback = False

        # The value never mattered for the error: the *declaration style*
        # is what's gone, so False trips the same migration message.
        with pytest.raises(TypeError, match="capabilities"):
            generator_capabilities(LegacyOff())

    def test_capabilities_declaration_beats_use_feedback_attribute(self):
        # A generator that declares capabilities may keep a use_feedback
        # attribute for its own bookkeeping (LLMProgramGenerator does) —
        # the declaration wins and no error is raised.
        class Declared:
            name = "declared"
            use_feedback = True
            capabilities = GeneratorCapabilities(feedback=True, shardable=True)

        assert generator_capabilities(Declared()).feedback

    def test_undeclared_generator_defaults_to_feedback_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            caps = generator_capabilities(object())
        assert caps == GeneratorCapabilities(feedback=False, shardable=True)


class TestBind:
    @pytest.mark.parametrize("approach", ALL_APPROACHES)
    def test_whole_stream_bind_is_identity(self, approach):
        # bind(0, 1, *) must keep the constructor-seeded stream: classic
        # sharding replays it on every shard, and every pre-lifecycle
        # checkpoint was produced by exactly that stream.
        unbound = _generator(approach)
        bound = _generator(approach)
        bound.bind(0, 1, 999)  # rng_seed ignored for the identity bind
        assert _programs(bound, 5) == _programs(unbound, 5)

    @pytest.mark.parametrize("approach", ALL_APPROACHES)
    def test_island_bind_rederives_the_stream(self, approach):
        # Two instances constructed from *different* seeds converge once
        # bound to the same partition: the island stream depends only on
        # (rng_seed, k, n), never on which process constructed it.
        a, b = _generator(approach, seed=1), _generator(approach, seed=2)
        a.bind(1, 3, 42)
        b.bind(1, 3, 42)
        assert _programs(a, 5) == _programs(b, 5)

    def test_islands_of_one_partition_diverge(self):
        a, b = _generator("llm4fp"), _generator("llm4fp")
        a.bind(0, 2, 42)
        b.bind(1, 2, 42)
        assert _programs(a, 5) != _programs(b, 5)

    @pytest.mark.parametrize("approach", ALL_APPROACHES)
    @pytest.mark.parametrize("partition", [(-1, 2), (2, 2), (0, 0)])
    def test_invalid_partition_rejected(self, approach, partition):
        with pytest.raises(ValueError, match="partition"):
            _generator(approach).bind(*partition, 42)


class TestStateRoundTrip:
    @pytest.mark.parametrize("approach", ALL_APPROACHES)
    def test_export_import_resumes_the_stream(self, approach):
        # Drive A halfway (observing a trigger so feedback state is
        # non-trivial), snapshot, restore into a fresh same-seed B: both
        # must continue with identical programs.
        a = _generator(approach)
        for i in range(4):
            program = a.generate()
            a.observe(_triggering_outcome(program, index=i))
        state = json.loads(json.dumps(a.export_state()))  # must survive JSON
        b = _generator(approach)
        b.import_state(state)
        assert _programs(b, 4) == _programs(a, 4)

    def test_island_state_round_trips_fitness_and_migrants(self):
        a = _generator("llm4fp")
        a.bind(0, 2, 42)
        for i in range(6):
            program = a.generate()
            a.observe(_triggering_outcome(program, index=i))
        state = json.loads(json.dumps(a.export_state()))
        b = _generator("llm4fp", seed=123)  # constructor seed is irrelevant
        b.bind(0, 2, 42)
        b.import_state(state)
        assert b.export_migrants(3) == a.export_migrants(3)
        assert _programs(b, 4) == _programs(a, 4)
