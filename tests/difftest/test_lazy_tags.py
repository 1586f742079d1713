"""Lazy structural tagging in the compare stage.

The engine extracts tier evidence only for inconsistent pairs that can
carry a tag.  These tests pin that laziness changes no verdict (every
recorded tag equals the eager computation over the compiled binaries) and
that it really is lazy (``shape_vector`` runs only for inconsistent,
env-equal, scalar-equal pairs, at most once per kernel and environment),
and that the devectorized content key the precondition compares is equal
exactly when the devectorized bodies' ``repr``s are.
"""

import importlib
from collections import Counter

import pytest

from repro.difftest.classify import devectorized_body, devectorized_fingerprint
from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine, EngineConfig, frontend_kernels
from repro.experiments.approaches import make_generator
from repro.tiers import shape_vector, structural_tag_from_shapes
from repro.toolchains import default_compilers
from repro.toolchains.cache import env_fingerprint, scalar_env_fingerprint
from repro.utils.rng import SplittableRng

SEED = 20250916

#: (approach, tier profile, budget): one small default-configuration
#: campaign per approach, plus the full-tier profile that tags every tier.
CAMPAIGNS = [
    ("varity", "baseline", 40),
    ("llm4fp", "baseline", 20),
    ("loops", "baseline", 20),
    ("loops", "full", 30),
]


def run(approach, tiers, budget, engine_cls=CampaignEngine):
    compilers = default_compilers(tiers=tiers)
    engine = engine_cls(
        compilers,
        CampaignConfig(budget=budget, seed=SEED),
        EngineConfig(backend="serial"),
    )
    generator = make_generator(
        approach, SplittableRng(SEED, f"cli-{approach}"), tiers=tiers
    )
    return compilers, engine.run(generator)


def eager_tag(binary_a, binary_b):
    """The tag the pre-lazy compare stage computed for one pair."""
    if scalar_env_fingerprint(binary_a.env) != scalar_env_fingerprint(binary_b.env):
        return None
    if repr(devectorized_body(binary_a.kernel)) != repr(devectorized_body(binary_b.kernel)):
        return None
    return structural_tag_from_shapes(
        shape_vector(binary_a.kernel, binary_a.env),
        shape_vector(binary_b.kernel, binary_b.env),
    )


@pytest.fixture(scope="module")
def inconsistent_pairs():
    """``(approach, tiers, budget) -> [(outcome, [(comparison, binary_a,
    binary_b), ...])]``: each campaign's outcomes with its inconsistent
    comparisons' binaries recompiled one by one (so no two sides share a
    kernel object), run once per module."""
    cache = {}

    def pairs(approach, tiers, budget):
        key = (approach, tiers, budget)
        if key not in cache:
            compilers, result = run(approach, tiers, budget)
            by_name = {c.name: c for c in compilers}
            cache[key] = [
                (outcome, _recompiled(by_name, outcome))
                for outcome in result.outcomes
            ]
        return cache[key]

    return pairs


def _recompiled(by_name, outcome):
    frontend = frontend_kernels(outcome.program.source)
    return [
        (
            comparison,
            *(
                by_name[name].compile_kernel(
                    frontend.kernels[by_name[name].kind], comparison.level
                )
                for name in (comparison.compiler_a, comparison.compiler_b)
            ),
        )
        for comparison in outcome.comparisons
        if not comparison.consistent
    ]


@pytest.mark.parametrize("approach,tiers,budget", CAMPAIGNS)
def test_recorded_tags_equal_eager_tags(inconsistent_pairs, approach, tiers, budget):
    inconsistent = 0
    for outcome, pairs in inconsistent_pairs(approach, tiers, budget):
        for comparison in outcome.comparisons:
            if comparison.consistent:
                assert comparison.tag is None
        for comparison, binary_a, binary_b in pairs:
            inconsistent += 1
            assert comparison.tag == eager_tag(binary_a, binary_b), (
                outcome.index,
                comparison,
            )
    assert inconsistent > 0


def test_parity_campaigns_carry_tags(inconsistent_pairs):
    # The parity test above is vacuous for tags unless some pairs tag.
    tags = {
        c.tag
        for outcome, _ in inconsistent_pairs(*CAMPAIGNS[-1])
        for c in outcome.comparisons
    } - {None}
    assert len(tags) >= 2


# -- the devectorized content key ------------------------------------------------


def test_devectorized_keys_equal_exactly_when_reprs_equal(inconsistent_pairs):
    # The oracle is the key this one replaced: the devectorized body's repr.
    # Every inconsistent, scalar-env-equal pair of the matrix is checked,
    # each campaign's keys in one table.
    verdicts = Counter()
    for campaign in CAMPAIGNS:
        table: dict = {}
        for _, pairs in inconsistent_pairs(*campaign):
            for comparison, binary_a, binary_b in pairs:
                if scalar_env_fingerprint(binary_a.env) != scalar_env_fingerprint(
                    binary_b.env
                ):
                    continue
                assert binary_a.kernel is not binary_b.kernel
                same = repr(devectorized_body(binary_a.kernel)) == repr(
                    devectorized_body(binary_b.kernel)
                )
                keys_a = devectorized_fingerprint(binary_a.kernel, table)
                keys_b = devectorized_fingerprint(binary_b.kernel, table)
                assert (keys_a == keys_b) == same, (campaign, comparison)
                verdicts[same] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("approach,tiers,budget", CAMPAIGNS)
def test_shape_vector_runs_only_for_taggable_pairs(
    monkeypatch, approach, tiers, budget
):
    module = importlib.import_module("repro.tiers.registry")
    original = module.shape_vector
    calls = []

    def counted(kernel, env=None):
        calls.append((id(kernel), env_fingerprint(env)))
        return original(kernel, env)

    monkeypatch.setattr(module, "shape_vector", counted)
    #: program index -> (compiled binaries by (compiler, level),
    #: shape_vector calls its compare stage made)
    programs = {}

    class RecordingEngine(CampaignEngine):
        def _compare_stage(self, index, compiles, outcome):
            start = len(calls)
            super()._compare_stage(index, compiles, outcome)
            binaries = {(r.compiler, r.level): r.binary for r in compiles}
            programs[index] = (binaries, calls[start:])

    _, result = run(approach, tiers, budget, RecordingEngine)
    for outcome in result.outcomes:
        runs, program_calls = programs[outcome.index]
        # At most one extraction per (kernel, environment) per program.
        assert len(program_calls) == len(set(program_calls))
        # Exactly the sides of inconsistent pairs whose scalar
        # environments and devectorized kernels match: never a side of a
        # consistent or an env-unequal pair.
        expected = set()
        table: dict = {}
        for c in outcome.comparisons:
            if c.consistent:
                continue
            ra = runs[(c.compiler_a, c.level)]
            rb = runs[(c.compiler_b, c.level)]
            if scalar_env_fingerprint(ra.env) != scalar_env_fingerprint(rb.env):
                continue
            if devectorized_fingerprint(ra.kernel, table) != devectorized_fingerprint(
                rb.kernel, table
            ):
                continue
            expected |= {(id(r.kernel), env_fingerprint(r.env)) for r in (ra, rb)}
        assert set(program_calls) == expected, outcome.index
    assert result.inconsistencies > 0
