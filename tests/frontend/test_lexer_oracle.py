"""Differential test: the compiled-pattern lexer against the original
character-at-a-time lexer (``reference_lexer``), on ASCII input.

Both must give the same ``(kind, text, line, column)`` tokens and the same
includes, or fail with the same ``LexError`` message, line and column.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_lexer
from repro.errors import LexError
from repro.experiments.approaches import make_generator
from repro.frontend.lexer import tokenize
from repro.utils.rng import SplittableRng


def lex(tokenizer, source):
    try:
        result = tokenizer(source)
    except LexError as e:
        return ("LexError", str(e), e.line, e.column)
    tokens = [(t.kind, t.text, t.line, t.column) for t in result.tokens]
    return (tokens, result.includes)


def assert_same(source):
    assert lex(tokenize, source) == lex(reference_lexer.tokenize, source)


#: Pieces of the C subset, and ASCII the language rejects.
FRAGMENTS = (
    list("abefxzEFX_019 \t\r\n.+-*/%=<>!&|?:;,()[]{}\"\\#@$`'~^")
    + ["\x0b", "\x0c", "/*", "*/", "//", "<<<", ">>>", "1e", "1.", ".5", "\\\n"]
    + ["#include <math.h>", "#include \"x.h\"", "#include", "#define N 1", "\n#"]
    + ["double", "int", "for", "return", "compute", "1.5e-3f", "\"%.17g\\n\""]
)

c_subset_text = st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join)


def _generator_samples():
    samples = []
    for approach in ("varity", "loops", "grammar-guided"):
        generator = make_generator(approach, SplittableRng(7, f"oracle-{approach}"))
        samples += [generator.generate().source for _ in range(3)]
    return samples


SAMPLES = _generator_samples()


@st.composite
def mutated_fragments(draw):
    """A slice of generator output with a few fragment edits applied."""
    source = draw(st.sampled_from(SAMPLES))
    start = draw(st.integers(0, len(source)))
    text = source[start : start + draw(st.integers(0, 300))]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.sampled_from(FRAGMENTS)) + text[j:]
    return text


class TestOracle:
    @given(c_subset_text)
    def test_c_subset_text(self, source):
        assert_same(source)

    @given(mutated_fragments())
    def test_mutated_generator_output(self, source):
        assert_same(source)


class TestNamedCases:
    """Error paths and literal edges where a regex scanner can drift."""

    @pytest.mark.parametrize(
        "source",
        [
            "a = b /* never closed",
            "x;\n/* two\nlines",
            "/*/",
        ],
    )
    def test_unterminated_block_comment_after_tokens(self, source):
        assert lex(tokenize, source)[1].endswith("unterminated block comment")
        assert_same(source)

    def test_backslash_newline_inside_string(self):
        source = 'printf("a\\\nb");\nx'
        assert lex(tokenize, source)[0][2][1] == "a\\\nb"
        assert_same(source)

    @pytest.mark.parametrize("source", ['"abc\\', "x \\", '"\\'])
    def test_trailing_backslash(self, source):
        assert lex(tokenize, source)[0] == "LexError"
        assert_same(source)

    @pytest.mark.parametrize("source", ["x\n  #include <math.h>", "a #", "\r#include <m.h>"])
    def test_hash_not_in_column_one(self, source):
        assert lex(tokenize, source)[1].endswith("unexpected character '#'")
        assert_same(source)

    @pytest.mark.parametrize(
        "source", ["1.x", "1e+", "1e+x", "1f", "1.f", ".5f", "1.e5", "1e5.5", "0x1F"]
    )
    def test_number_edges(self, source):
        assert_same(source)

    @pytest.mark.parametrize("source", ["k<<<1,1>>>()", "a<<<<b", "a>>>>b", "<<=>>="])
    def test_launch_punctuators(self, source):
        assert_same(source)
