"""Lexer: tokens, literals, comments, includes."""

import pytest

from repro.errors import LexError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind


def kinds(src):
    return [t.kind for t in tokenize(src).tokens[:-1]]


def texts(src):
    return [t.text for t in tokenize(src).tokens[:-1]]


class TestBasics:
    def test_empty_source(self):
        result = tokenize("")
        assert result.tokens[-1].kind is TokenKind.EOF

    def test_keywords_vs_idents(self):
        toks = tokenize("double xdouble").tokens
        assert toks[0].kind is TokenKind.KEYWORD
        assert toks[1].kind is TokenKind.IDENT

    def test_identifier_with_underscore_digits(self):
        assert texts("var_1 _tmp2") == ["var_1", "_tmp2"]

    def test_positions(self):
        toks = tokenize("a\n  b").tokens
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)


class TestNumbers:
    def test_int_literal(self):
        toks = tokenize("42").tokens
        assert toks[0].kind is TokenKind.INT_LIT

    def test_float_forms(self):
        for lit in ("1.5", "0.5", ".25", "1e10", "1.5e-3", "2E+4", "3.0f"):
            toks = tokenize(lit).tokens
            assert toks[0].kind is TokenKind.FLOAT_LIT, lit
            assert toks[0].text == lit

    def test_int_not_float(self):
        assert kinds("123")[0] is TokenKind.INT_LIT

    def test_member_like_sequences(self):
        # `1.e` without exponent digits must not eat the 'e'.
        toks = tokenize("1.x").tokens
        assert toks[0].text == "1."
        assert toks[1].text == "x"


class TestPunctuation:
    def test_maximal_munch(self):
        assert texts("a+=b") == ["a", "+=", "b"]
        assert texts("a<=b") == ["a", "<=", "b"]
        assert texts("i++") == ["i", "++"]

    def test_cuda_launch_tokens(self):
        assert "<<<" in texts("k<<<1,1>>>()")
        assert ">>>" in texts("k<<<1,1>>>()")

    def test_unknown_char_rejected(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestComments:
    def test_line_comment(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")


class TestIncludes:
    def test_collected(self):
        res = tokenize('#include <math.h>\n#include <stdio.h>\nint x;')
        assert res.includes == ["math.h", "stdio.h"]

    def test_quoted_include(self):
        assert tokenize('#include "local.h"\n').includes == ["local.h"]

    def test_other_directives_rejected(self):
        with pytest.raises(LexError):
            tokenize("#define N 10\n")

    def test_malformed_include(self):
        with pytest.raises(LexError):
            tokenize("#include math.h\n")


class TestStrings:
    def test_simple(self):
        toks = tokenize('"%.17g\\n"').tokens
        assert toks[0].kind is TokenKind.STRING_LIT
        assert toks[0].text == "%.17g\\n"

    def test_unterminated(self):
        with pytest.raises(LexError):
            tokenize('"oops')


class TestAsciiOnly:
    """Identifiers and numbers are ASCII: any other character outside a
    string or comment is a named error at its own position."""

    def test_superscript_digit(self):
        # str.isdigit accepts '²', which int() then rejects
        with pytest.raises(LexError, match="unexpected character '²'") as e:
            tokenize("int x = ²;")
        assert (e.value.line, e.value.column) == (1, 9)

    def test_non_ascii_digit_does_not_extend_a_number(self):
        # '1٣' used to lex as one literal that int() read as 13
        with pytest.raises(LexError, match="unexpected character") as e:
            tokenize("x = 1٣;")
        assert (e.value.line, e.value.column) == (1, 6)

    def test_non_ascii_letter(self):
        with pytest.raises(LexError, match="unexpected character 'é'") as e:
            tokenize("int a;\n  é = 1;")
        assert (e.value.line, e.value.column) == (2, 3)

    def test_non_ascii_inside_strings_and_comments(self):
        toks = tokenize('// é\n/* ² */ "٣"').tokens
        assert [t.text for t in toks[:-1]] == ["٣"]
