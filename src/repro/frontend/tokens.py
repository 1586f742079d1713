"""Token definitions for the C-subset lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenKind(enum.Enum):
    IDENT = enum.auto()
    INT_LIT = enum.auto()
    FLOAT_LIT = enum.auto()
    STRING_LIT = enum.auto()
    KEYWORD = enum.auto()
    PUNCT = enum.auto()
    EOF = enum.auto()


#: C keywords the subset recognises (others lex as identifiers and are
#: rejected later, which gives better error messages than a lex failure).
KEYWORDS = frozenset(
    {
        "int",
        "float",
        "double",
        "char",
        "void",
        "if",
        "else",
        "for",
        "while",
        "return",
        "const",
    }
)

#: Multi-character punctuators, longest first so maximal munch works.
PUNCTUATORS = (
    "<<<",
    ">>>",
    "+=",
    "-=",
    "*=",
    "/=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "<",
    ">",
    "!",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    "?",
    ":",
    "&",
)


class Token(NamedTuple):
    """One lexed token; a tuple, so building one is cheap."""

    kind: TokenKind
    text: str
    line: int
    column: int

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"
