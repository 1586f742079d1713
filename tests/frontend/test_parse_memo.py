"""``parse_program`` memo: shared units, uncached failures, bounded size,
and the number of real parses a default campaign makes per program."""

import pytest

from repro.difftest.config import CampaignConfig
from repro.difftest.harness import run_campaign
from repro.errors import ParseError
from repro.experiments.approaches import make_generator
from repro.frontend.parser import parse_program
from repro.toolchains import default_compilers
from repro.utils.rng import SplittableRng

#: The CLI's default ``--seed``.
DEFAULT_SEED = 20250916


def source(n):
    return f"void compute(double x) {{ double c = x + {n}.0; }}"


@pytest.fixture(autouse=True)
def empty_memo():
    parse_program.cache_clear()
    yield
    parse_program.cache_clear()


def test_equal_text_returns_the_same_unit():
    first = parse_program(source(1))
    copy = "".join(list(source(1)))  # equal text, a different str object
    assert copy is not source(1)
    assert parse_program(copy) is first


def test_failing_source_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(ParseError):
            parse_program("void compute(double x) { double c = ; }")
    info = parse_program.cache_info()
    assert (info.misses, info.currsize) == (3, 0)


def test_seventeen_sources_evict_the_first():
    first = parse_program(source(0))
    for n in range(1, 17):
        parse_program(source(n))
    assert parse_program.cache_info().currsize == 16
    assert parse_program(source(0)) is not first
    assert parse_program.cache_info().misses == 18


def misses_per_program(approach, budget=20):
    """Memo misses (actual parses) of each program of a default campaign."""
    totals = []
    run_campaign(
        make_generator(approach, SplittableRng(DEFAULT_SEED, f"cli-{approach}")),
        default_compilers(),
        CampaignConfig(budget=budget, seed=DEFAULT_SEED),
        progress=lambda i, outcome: totals.append(parse_program.cache_info().misses),
    )
    return [b - a for a, b in zip([0] + totals, totals)]


def test_llm4fp_parses_per_program():
    # A grammar-prompted program is parsed once, by the generator's input
    # pairing; the engine's frontend then hits the memo, and the CUDA
    # translation is an AST rewrite.  Mutation rounds parse their
    # candidates too; programs 12 and 15 re-read an example that CUDA
    # texts used to evict from the memo.
    assert misses_per_program("llm4fp") == [
        1, 1, 5, 3, 4, 1, 3, 3, 8, 2, 1, 1, 5, 1, 4, 5, 3, 2, 4, 8,
    ]


def test_varity_parses_each_program_once():
    # the source only: the CUDA translation rewrites the parsed unit
    assert misses_per_program("varity") == [1] * 20
