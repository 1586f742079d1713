"""``parse_program`` memo: shared units, uncached failures, bounded size,
and the number of real parses and lexes a default campaign makes per
program."""

import pytest

from repro.difftest.config import CampaignConfig
from repro.difftest.engine import CampaignEngine
from repro.errors import ParseError
from repro.experiments.approaches import make_generator
from repro.frontend import lexer, parser
from repro.frontend.parser import parse_program
from repro.fp.formats import Precision
from repro.generation.llm.mutator import _synthesize_snippet
from repro.metrics.ctokens import c_tokens
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


def test_token_texts_come_from_the_memo(monkeypatch):
    text = 'void compute(double x) { printf("%g", x / 2.0f); }'
    unit, texts = parse_program(text, tokens=True)
    monkeypatch.setattr(parser, "tokenize", None)  # a hit must not lex
    assert parse_program(text) is unit
    assert parse_program(text, tokens=True)[1] is texts
    assert texts == tuple(c_tokens(text))
    assert parse_program.cache_info().misses == 1


def test_seventeen_sources_evict_the_first():
    first = parse_program(source(0))
    for n in range(1, 17):
        parse_program(source(n))
    assert parse_program.cache_info().currsize == 16
    assert parse_program(source(0)) is not first
    assert parse_program.cache_info().misses == 18


def test_snippet_synthesis_leaves_the_memo_alone():
    # A graft's wrapper text is parsed once and dropped; through the memo
    # it would evict the feedback seeds a mutation round reads again.
    parse_program(source(0))
    before = parse_program.cache_info()
    for n in range(8):
        rng = SplittableRng(n, "snippet")
        assert _synthesize_snippet(rng, ("x", "y"), Precision.DOUBLE)
    assert parse_program.cache_info() == before


def per_program(approach, monkeypatch, budget=20):
    """Memo misses (parses of whole program texts) and ``tokenize`` calls
    (every lex, snippet wrappers included) of each program of a default
    campaign."""
    lexes = [0]

    def counting_tokenize(source):
        lexes[0] += 1
        return lexer.tokenize(source)

    monkeypatch.setattr(parser, "tokenize", counting_tokenize)
    totals = []
    CampaignEngine(
        default_compilers(), CampaignConfig(budget=budget, seed=DEFAULT_SEED)
    ).run(
        make_generator(approach, SplittableRng(DEFAULT_SEED, f"cli-{approach}")),
        progress=lambda i, outcome: totals.append(
            (parse_program.cache_info().misses, lexes[0])
        ),
    )
    return [
        [b - a for a, b in zip((0,) + column, column)] for column in zip(*totals)
    ]


def test_llm4fp_parses_per_program(monkeypatch):
    # A grammar-prompted program is parsed once, by the generator's input
    # pairing; the engine's frontend then hits the memo, and the CUDA
    # translation is an AST rewrite.  A mutation round parses its
    # candidate variants through the memo, and its seed again only when
    # the memo has evicted it, which no program of this prefix meets;
    # its grafted snippets are parsed outside the memo.
    parses, _ = per_program("llm4fp", monkeypatch)
    assert parses == [1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 3]


def test_llm4fp_lexes_each_parsed_text_once(monkeypatch):
    # The seed check reads the token texts the memo keeps with each unit,
    # so no text is lexed apart from its parse.  The counts include the
    # snippet wrappers, each lexed once by its uncached parse.
    _, lexes = per_program("llm4fp", monkeypatch)
    assert lexes == [1, 1, 4, 3, 3, 1, 2, 2, 7, 2, 1, 1, 5, 1, 3, 5, 3, 2, 3, 8]


def test_varity_parses_each_program_once(monkeypatch):
    # the source only: the CUDA translation rewrites the parsed unit
    parses, lexes = per_program("varity", monkeypatch)
    assert parses == [1] * 20
    assert lexes == [1] * 20
