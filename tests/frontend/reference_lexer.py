"""Reference lexer: the original character-at-a-time scanner, kept as a
test oracle for :func:`repro.frontend.lexer.tokenize`.

The differential tests run both lexers on the same input and require the
same tokens and includes, or the same :class:`LexError` message, line and
column.  The code below is the scanner the compiled-pattern lexer
replaced, unchanged apart from this docstring and one section comment.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.frontend.tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

__all__ = ["Lexer", "tokenize", "LexResult"]


class LexResult:
    """Token stream plus the ``#include`` headers seen."""

    def __init__(self, tokens: list[Token], includes: list[str]) -> None:
        self.tokens = tokens
        self.includes = includes


class Lexer:
    def __init__(self, source: str) -> None:
        self._src = source
        self._pos = 0
        self._line = 1
        self._col = 1
        self.includes: list[str] = []

    # -- low-level cursor ----------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        i = self._pos + offset
        return self._src[i] if i < len(self._src) else ""

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self._pos < len(self._src):
                if self._src[self._pos] == "\n":
                    self._line += 1
                    self._col = 1
                else:
                    self._col += 1
                self._pos += 1

    def _error(self, message: str) -> LexError:
        return LexError(message, self._line, self._col)

    # -- skipping -------------------------------------------------------------

    def _skip_trivia(self) -> None:
        while True:
            c = self._peek()
            if not c:
                return
            if c in " \t\r\n":
                self._advance()
            elif c == "/" and self._peek(1) == "/":
                while self._peek() and self._peek() != "\n":
                    self._advance()
            elif c == "/" and self._peek(1) == "*":
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if not self._peek():
                        raise self._error("unterminated block comment")
                    self._advance()
                self._advance(2)
            elif c == "#" and self._col == 1:
                self._directive()
            else:
                return

    def _directive(self) -> None:
        start_line = self._line
        text = []
        while self._peek() and self._peek() != "\n":
            text.append(self._peek())
            self._advance()
        line = "".join(text).strip()
        if line.startswith("#include"):
            rest = line[len("#include"):].strip()
            if (rest.startswith("<") and rest.endswith(">")) or (
                rest.startswith('"') and rest.endswith('"')
            ):
                self.includes.append(rest[1:-1].strip())
                return
            raise LexError(f"malformed include: {line!r}", start_line, 1)
        raise LexError(f"unsupported preprocessor directive: {line!r}", start_line, 1)

    # -- token scanners ---------------------------------------------------------

    def _ident(self) -> Token:
        line, col = self._line, self._col
        chars = []
        while self._peek().isalnum() or self._peek() == "_":
            chars.append(self._peek())
            self._advance()
        text = "".join(chars)
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, line, col)

    def _number(self) -> Token:
        line, col = self._line, self._col
        chars = []
        is_float = False
        # integer part
        while self._peek().isdigit():
            chars.append(self._peek())
            self._advance()
        if self._peek() == ".":
            is_float = True
            chars.append(".")
            self._advance()
            while self._peek().isdigit():
                chars.append(self._peek())
                self._advance()
        if self._peek() in "eE":
            nxt = self._peek(1)
            nxt2 = self._peek(2)
            if nxt.isdigit() or (nxt in "+-" and nxt2.isdigit()):
                is_float = True
                chars.append(self._peek())
                self._advance()
                if self._peek() in "+-":
                    chars.append(self._peek())
                    self._advance()
                while self._peek().isdigit():
                    chars.append(self._peek())
                    self._advance()
        # suffixes: f/F (float), u/l ignored for ints
        if self._peek() in "fF" and is_float:
            chars.append(self._peek())
            self._advance()
        text = "".join(chars)
        if not text or text == ".":
            raise self._error("malformed numeric literal")
        kind = TokenKind.FLOAT_LIT if is_float else TokenKind.INT_LIT
        return Token(kind, text, line, col)

    def _string(self) -> Token:
        line, col = self._line, self._col
        self._advance()  # opening quote
        chars = []
        while True:
            c = self._peek()
            if not c or c == "\n":
                raise self._error("unterminated string literal")
            if c == '"':
                self._advance()
                break
            if c == "\\":
                chars.append(c)
                self._advance()
                chars.append(self._peek())
                self._advance()
                continue
            chars.append(c)
            self._advance()
        return Token(TokenKind.STRING_LIT, "".join(chars), line, col)

    def _punct(self) -> Token:
        line, col = self._line, self._col
        for p in PUNCTUATORS:
            if self._src.startswith(p, self._pos):
                self._advance(len(p))
                return Token(TokenKind.PUNCT, p, line, col)
        raise self._error(f"unexpected character {self._peek()!r}")

    # -- main loop -----------------------------------------------------------------

    def run(self) -> LexResult:
        tokens: list[Token] = []
        while True:
            self._skip_trivia()
            c = self._peek()
            if not c:
                tokens.append(Token(TokenKind.EOF, "", self._line, self._col))
                return LexResult(tokens, self.includes)
            if c.isalpha() or c == "_":
                tokens.append(self._ident())
            elif c.isdigit() or (c == "." and self._peek(1).isdigit()):
                tokens.append(self._number())
            elif c == '"':
                tokens.append(self._string())
            else:
                tokens.append(self._punct())


def tokenize(source: str) -> LexResult:
    """Tokenize C source, returning tokens and collected includes."""
    return Lexer(source).run()
