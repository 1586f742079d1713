"""Lexer for the C subset.

Preprocessor lines are not expanded: ``#include <...>`` directives are
collected (the sema stage enforces the paper's header allow-list) and any
other directive is rejected — the generators never need macros, and
rejecting them keeps candidate programs analysable.

The scanner is one compiled pattern matched at the cursor: each named
group is one lexical class, tried in order.  Identifiers and numbers use
ASCII classes only, so any other character outside a string literal, a
comment or a directive line is an ``unexpected character`` error.
"""

from __future__ import annotations

import re

from repro.errors import LexError
from repro.frontend.tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

__all__ = ["tokenize", "LexResult"]


class LexResult:
    """Token stream plus the ``#include`` headers seen."""

    def __init__(self, tokens: list[Token], includes: list[str]) -> None:
        self.tokens = tokens
        self.includes = includes


_STRING_BODY = r'"(?:[^"\\\n]|\\[\s\S])*'

#: One alternative per lexical class; the order is the match priority.
_SCANNER = re.compile(
    "|".join(
        (
            r"(?P<space>[ \t\r\n]+)",
            r"(?P<comment>//[^\n]*|/\*[\s\S]*?\*/)",
            # Before the punctuators, so ``/*`` never lexes as ``/`` and ``*``.
            r"(?P<open_comment>/\*)",
            # A directive starts in column 1 and runs to the end of its line.
            r"(?P<directive>^#[^\n]*)",
            r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)",
            r"(?P<float>(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fF]?"
            r"|[0-9]+[eE][+-]?[0-9]+[fF]?)",
            r"(?P<int>[0-9]+)",
            rf"(?P<string>{_STRING_BODY}\")",
            "(?P<punct>" + "|".join(re.escape(p) for p in PUNCTUATORS) + ")",
            # Reached only when the complete string above failed to match; a
            # trailing backslash is consumed too, so the error is at the end.
            rf"(?P<open_string>{_STRING_BODY}\\?)",
        )
    ),
    re.MULTILINE,
)

_LITERAL_KINDS = {"float": TokenKind.FLOAT_LIT, "int": TokenKind.INT_LIT}


def _position(source: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of ``offset`` in ``source``."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _directive(text: str, line: int) -> str:
    """The header named by an ``#include`` line; any other directive fails."""
    text = text.strip()
    if text.startswith("#include"):
        rest = text[len("#include"):].strip()
        if (rest.startswith("<") and rest.endswith(">")) or (
            rest.startswith('"') and rest.endswith('"')
        ):
            return rest[1:-1].strip()
        raise LexError(f"malformed include: {text!r}", line, 1)
    raise LexError(f"unsupported preprocessor directive: {text!r}", line, 1)


def tokenize(source: str) -> LexResult:
    """Tokenize C source, returning tokens and collected includes."""
    tokens: list[Token] = []
    includes: list[str] = []
    append = tokens.append
    match = _SCANNER.match
    pos = 0
    end = len(source)
    line = 1
    line_start = 0  # offset of the first character of ``line``
    while pos < end:
        m = match(source, pos)
        if m is None:
            raise LexError(
                f"unexpected character {source[pos]!r}", line, pos - line_start + 1
            )
        group = m.lastgroup
        stop = m.end()
        if group == "punct":
            append(Token(TokenKind.PUNCT, m.group(), line, pos - line_start + 1))
        elif group == "ident":
            text = m.group()
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            append(Token(kind, text, line, pos - line_start + 1))
        elif group == "float" or group == "int":
            append(Token(_LITERAL_KINDS[group], m.group(), line, pos - line_start + 1))
        elif group == "directive":
            includes.append(_directive(m.group(), line))
        elif group == "string":
            append(Token(TokenKind.STRING_LIT, source[pos + 1 : stop - 1], line,
                         pos - line_start + 1))
        elif group == "open_comment":
            raise LexError("unterminated block comment", *_position(source, end))
        elif group == "open_string":
            raise LexError("unterminated string literal", *_position(source, stop))
        # Spaces, block comments and strings (escaped newlines) span lines.
        if group == "space" or group == "comment" or group == "string":
            newlines = source.count("\n", pos, stop)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, stop) + 1
        pos = stop
    append(Token(TokenKind.EOF, "", line, end - line_start + 1))
    return LexResult(tokens, includes)
