"""Lazy structural tagging in the compare stage.

The engine extracts tier evidence only for inconsistent pairs that can
carry a tag.  These tests pin that laziness changes no verdict (every
recorded tag equals the eager computation over the compiled binaries) and
that it really is lazy (``shape_vector`` runs only for inconsistent,
env-equal, scalar-equal pairs, at most once per kernel and environment).
"""

import importlib

import pytest

from repro.difftest.classify import devectorized_fingerprint
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
    return structural_tag_from_shapes(
        shape_vector(binary_a.kernel, binary_a.env),
        shape_vector(binary_b.kernel, binary_b.env),
        scalar_env_fingerprint(binary_a.env) == scalar_env_fingerprint(binary_b.env),
        devectorized_fingerprint(binary_a.kernel)
        == devectorized_fingerprint(binary_b.kernel),
    )


@pytest.mark.parametrize("approach,tiers,budget", CAMPAIGNS)
def test_recorded_tags_equal_eager_tags(approach, tiers, budget):
    compilers, result = run(approach, tiers, budget)
    by_name = {c.name: c for c in compilers}
    inconsistent = 0
    for outcome in result.outcomes:
        frontend = frontend_kernels(outcome.program.source)
        for comparison in outcome.comparisons:
            if comparison.consistent:
                assert comparison.tag is None
                continue
            inconsistent += 1
            binary_a, binary_b = (
                by_name[name].compile_kernel(
                    frontend.kernels[by_name[name].kind], comparison.level
                )
                for name in (comparison.compiler_a, comparison.compiler_b)
            )
            assert comparison.tag == eager_tag(binary_a, binary_b), (
                outcome.index,
                comparison,
            )
    assert inconsistent > 0


def test_parity_campaigns_carry_tags():
    # The parity test above is vacuous for tags unless some pairs tag.
    _, result = run(*CAMPAIGNS[-1])
    tags = {c.tag for o in result.outcomes for c in o.comparisons} - {None}
    assert len(tags) >= 2


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
    #: program index -> (compare-stage runs, shape_vector calls it made)
    programs = {}

    class RecordingEngine(CampaignEngine):
        def _compare_stage(self, index, runs, outcome):
            start = len(calls)
            super()._compare_stage(index, runs, outcome)
            programs[index] = (runs, calls[start:])

    _, result = run(approach, tiers, budget, RecordingEngine)
    for outcome in result.outcomes:
        runs, program_calls = programs[outcome.index]
        # At most one extraction per (kernel, environment) per program.
        assert len(program_calls) == len(set(program_calls))
        # Exactly the sides of inconsistent pairs whose scalar
        # environments and devectorized kernels match: never a side of a
        # consistent or an env-unequal pair.
        expected = set()
        for c in outcome.comparisons:
            if c.consistent:
                continue
            ra = runs[(c.compiler_a, c.level)]
            rb = runs[(c.compiler_b, c.level)]
            if scalar_env_fingerprint(ra.env) != scalar_env_fingerprint(rb.env):
                continue
            if devectorized_fingerprint(ra.kernel) != devectorized_fingerprint(
                rb.kernel
            ):
                continue
            expected |= {(id(r.kernel), env_fingerprint(r.env)) for r in (ra, rb)}
        assert set(program_calls) == expected, outcome.index
    assert result.inconsistencies > 0
