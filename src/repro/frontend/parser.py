"""Recursive-descent parser for the C subset.

Grammar follows C's expression precedence; statements cover the Fig. 2
grammar plus while loops, ternaries, casts and compound assignment, which
LLM-style generation produces in practice.  ``main`` is parsed with the
same machinery; the CUDA launch syntax ``compute<<<1,1>>>(...)`` is also
accepted so translated programs can round-trip through the frontend.
"""

from __future__ import annotations

import functools

from repro.errors import ParseError
from repro.frontend import ast
from repro.frontend.ctypes import CType
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import Token, TokenKind

__all__ = ["Parser", "parse_program", "MAX_AST_DEPTH"]

#: Deepest AST :func:`parse_program` accepts.  Sema, the C printer, IR
#: lowering and the IR's dataclass ``repr``/``==`` recurse at least once per
#: level; a 400-term ``x+x+...`` chain already overflows the interpreter
#: stack in lowering, so the cap sits well below that.  Generated programs
#: stay under 20 levels.
MAX_AST_DEPTH = 200

#: C's binary operators, loosest first; every one associates to the left.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


class Parser:
    def __init__(self, source: str) -> None:
        lexed = tokenize(source)
        self._tokens = lexed.tokens
        self._includes = tuple(lexed.includes)
        self._pos = 0

    # -- token helpers --------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        if not offset:
            return self._tokens[self._pos]  # never past EOF: see _next
        i = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[i]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
        return tok

    def _error(self, message: str) -> ParseError:
        tok = self._peek()
        where = tok.text or "<eof>"
        return ParseError(f"{message} (found {where!r})", tok.line, tok.column)

    def _expect_punct(self, text: str) -> Token:
        tok = self._peek()
        if not tok.is_punct(text):
            raise self._error(f"expected {text!r}")
        return self._next()

    def _accept_punct(self, text: str) -> bool:
        if self._peek().is_punct(text):
            self._next()
            return True
        return False

    def _expect_ident(self) -> str:
        tok = self._peek()
        if tok.kind is not TokenKind.IDENT:
            raise self._error("expected identifier")
        self._next()
        return tok.text

    # -- types ------------------------------------------------------------------

    def _at_type(self) -> bool:
        tok = self._peek()
        if tok.is_keyword("const"):
            tok = self._peek(1)
        return tok.kind is TokenKind.KEYWORD and tok.text in (
            "int",
            "float",
            "double",
            "char",
            "void",
        )

    def _parse_base_type(self) -> CType:
        if self._peek().is_keyword("const"):
            self._next()
        tok = self._peek()
        if not self._at_type() and not (
            tok.kind is TokenKind.KEYWORD and tok.text in ("int", "float", "double", "char", "void")
        ):
            raise self._error("expected type name")
        base = self._next().text
        pointers = 0
        while self._accept_punct("*"):
            pointers += 1
        return CType(base, pointers)

    # -- top level -----------------------------------------------------------------

    def parse(self) -> ast.TranslationUnit:
        functions: list[ast.FunctionDef] = []
        while self._peek().kind is not TokenKind.EOF:
            functions.append(self._parse_function())
        if not functions:
            raise ParseError("empty translation unit")
        return ast.TranslationUnit(self._includes, tuple(functions))

    _CUDA_QUALIFIERS = ("__global__", "__device__", "__host__")

    def _parse_function(self) -> ast.FunctionDef:
        qualifier = None
        tok = self._peek()
        if tok.kind is TokenKind.IDENT and tok.text in self._CUDA_QUALIFIERS:
            qualifier = self._next().text
        rtype = self._parse_base_type()
        name = self._expect_ident()
        self._expect_punct("(")
        params: list[ast.Param] = []
        if not self._peek().is_punct(")"):
            while True:
                ptype = self._parse_base_type()
                if ptype.base == "void" and ptype.pointers == 0 and self._peek().is_punct(")"):
                    break  # f(void)
                pname = self._expect_ident()
                if self._accept_punct("["):
                    # `double a[]` parameter decays to a pointer.
                    self._expect_punct("]")
                    ptype = CType(ptype.base, ptype.pointers + 1)
                params.append(ast.Param(ptype, pname))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        body = self._parse_block()
        return ast.FunctionDef(rtype, name, tuple(params), body, qualifier)

    # -- statements ---------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        self._expect_punct("{")
        stmts: list[ast.Stmt] = []
        while not self._peek().is_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise self._error("unterminated block")
            stmts.append(self._parse_statement())
        self._expect_punct("}")
        return ast.Block(tuple(stmts))

    def _parse_statement(self) -> ast.Stmt:
        tok = self._peek()
        if tok.is_punct("{"):
            return self._parse_block()
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("return"):
            self._next()
            value = None
            if not self._peek().is_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return ast.Return(value)
        if self._at_type():
            decl = self._parse_declaration()
            self._expect_punct(";")
            return decl
        stmt = self._parse_simple_statement()
        self._expect_punct(";")
        return stmt

    def _parse_declaration(self) -> ast.Decl:
        base = self._parse_base_type()
        declarators: list[ast.Declarator] = []
        while True:
            # Each declarator may add its own pointer depth in C; the
            # generators never do, so we keep the base's depth.
            name = self._expect_ident()
            size: int | None = None
            init: ast.Expr | None = None
            array_init: tuple[ast.Expr, ...] | None = None
            if self._accept_punct("["):
                size_tok = self._peek()
                if size_tok.kind is not TokenKind.INT_LIT:
                    raise self._error("array size must be an integer literal")
                self._next()
                size = int(size_tok.text)
                self._expect_punct("]")
            if self._accept_punct("="):
                if self._peek().is_punct("{"):
                    self._next()
                    elems: list[ast.Expr] = []
                    if not self._peek().is_punct("}"):
                        while True:
                            elems.append(self._parse_assignment_value())
                            if not self._accept_punct(","):
                                break
                    self._expect_punct("}")
                    array_init = tuple(elems)
                else:
                    init = self._parse_assignment_value()
            declarators.append(ast.Declarator(name, size, init, array_init))
            if not self._accept_punct(","):
                break
        return ast.Decl(base, tuple(declarators))

    def _parse_simple_statement(self) -> ast.Stmt:
        """Assignment, inc/dec, or expression statement."""
        expr = self._parse_expression()
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in ("=", "+=", "-=", "*=", "/="):
            if not isinstance(expr, (ast.Ident, ast.Index)):
                raise self._error("assignment target must be a variable or element")
            op = self._next().text
            value = self._parse_expression()
            return ast.Assign(expr, op, value)
        if tok.kind is TokenKind.PUNCT and tok.text in ("++", "--"):
            if not isinstance(expr, (ast.Ident, ast.Index)):
                raise self._error("++/-- target must be a variable or element")
            op = self._next().text
            return ast.IncDec(expr, op)
        return ast.ExprStmt(expr)

    def _parse_if(self) -> ast.If:
        self._next()  # 'if'
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement_as_block()
        other = None
        if self._peek().is_keyword("else"):
            self._next()
            other = self._parse_statement_as_block()
        return ast.If(cond, then, other)

    def _parse_statement_as_block(self) -> ast.Block:
        stmt = self._parse_statement()
        if isinstance(stmt, ast.Block):
            return stmt
        return ast.Block((stmt,))

    def _parse_for(self) -> ast.For:
        self._next()  # 'for'
        self._expect_punct("(")
        init: ast.Decl | ast.Assign | None = None
        if not self._peek().is_punct(";"):
            if self._at_type():
                init = self._parse_declaration()
            else:
                stmt = self._parse_simple_statement()
                if not isinstance(stmt, ast.Assign):
                    raise self._error("for-init must be a declaration or assignment")
                init = stmt
        self._expect_punct(";")
        cond = None
        if not self._peek().is_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        step: ast.Assign | ast.IncDec | None = None
        if not self._peek().is_punct(")"):
            # '++i' prefix form
            if self._peek().kind is TokenKind.PUNCT and self._peek().text in ("++", "--"):
                op = self._next().text
                target = self._parse_unary()
                if not isinstance(target, (ast.Ident, ast.Index)):
                    raise self._error("++/-- target must be a variable")
                step = ast.IncDec(target, op)
            else:
                stmt = self._parse_simple_statement()
                if not isinstance(stmt, (ast.Assign, ast.IncDec)):
                    raise self._error("for-step must be an assignment or ++/--")
                step = stmt
        self._expect_punct(")")
        body = self._parse_statement_as_block()
        return ast.For(init, cond, step, body)

    def _parse_while(self) -> ast.While:
        self._next()  # 'while'
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement_as_block()
        return ast.While(cond, body)

    # -- expressions (precedence climbing) ------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_assignment_value(self) -> ast.Expr:
        """Expression context where a top-level comma would be a separator."""
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._accept_punct("?"):
            then = self._parse_expression()
            self._expect_punct(":")
            other = self._parse_ternary()
            return ast.Ternary(cond, then, other)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        """Binary operators binding at least as tightly as ``min_prec``,
        grouped to the left: each right operand takes only tighter ones."""
        left = self._parse_unary()
        while True:
            tok = self._tokens[self._pos]
            if tok.kind is not TokenKind.PUNCT:
                return left
            prec = _BINARY_PRECEDENCE.get(tok.text, 0)
            if prec < min_prec:
                return left
            self._pos += 1  # a punctuator, never EOF
            left = ast.Binary(tok.text, left, self._parse_binary(prec + 1))

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in ("-", "+", "!"):
            self._next()
            return ast.Unary(tok.text, self._parse_unary())
        # cast: '(' type ')' unary
        if tok.is_punct("(") and self._peek(1).kind is TokenKind.KEYWORD and self._peek(
            1
        ).text in ("int", "float", "double"):
            self._next()
            ctype = self._parse_base_type()
            self._expect_punct(")")
            return ast.Cast(ctype, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._accept_punct("["):
                index = self._parse_expression()
                self._expect_punct("]")
                expr = ast.Index(expr, index)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT_LIT:
            self._next()
            return ast.IntLit(int(tok.text), tok.text)
        if tok.kind is TokenKind.FLOAT_LIT:
            self._next()
            text = tok.text
            is_single = text.endswith(("f", "F"))
            return ast.FloatLit(float(text.rstrip("fF")), text, is_single)
        if tok.kind is TokenKind.STRING_LIT:
            self._next()
            return ast.StrLit(tok.text)
        if tok.kind is TokenKind.IDENT:
            name = self._next().text
            # CUDA launch: compute<<<1,1>>>(args)
            if self._peek().is_punct("<<<"):
                self._next()
                self._parse_expression()
                self._expect_punct(",")
                self._parse_expression()
                self._expect_punct(">>>")
                self._expect_punct("(")
                args = self._parse_call_args()
                return ast.Call(name, args)
            if self._accept_punct("("):
                args = self._parse_call_args()
                return ast.Call(name, args)
            return ast.Ident(name)
        if self._accept_punct("("):
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise self._error("expected expression")

    def _parse_call_args(self) -> tuple[ast.Expr, ...]:
        args: list[ast.Expr] = []
        if not self._peek().is_punct(")"):
            while True:
                args.append(self._parse_assignment_value())
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        return tuple(args)


def parse_program(
    source: str, *, tokens: bool = False
) -> ast.TranslationUnit | tuple[ast.TranslationUnit, tuple[str, ...]]:
    """Parse C source into a translation unit (includes + functions).

    With ``tokens=True`` the result is ``(unit, texts)``: ``texts`` is the
    tuple of token texts (EOF dropped) the unit was parsed from, which the
    mutator compares to tell a variant from its seed without lexing again.

    Memoized by source text, the unit and its token texts together: one
    program's text is lexed and parsed once, and the generator, the
    mutator and the engine each get the same unit.  Sharing is safe because
    AST nodes are frozen and sema keeps types and symbols out of band, in a
    :class:`~repro.frontend.sema.SemaResult`.  A failed parse is not
    cached, so every call on bad text raises.

    A tree deeper than :data:`MAX_AST_DEPTH` is a :class:`ParseError`, so
    no later stage meets a tree its recursion cannot handle.
    """
    parsed = _parse_memo(source)
    return parsed if tokens else parsed[0]


@functools.lru_cache(maxsize=16)
def _parse_memo(source: str) -> tuple[ast.TranslationUnit, tuple[str, ...]]:
    parser = Parser(source)
    try:
        unit = parser.parse()
    except RecursionError:
        raise parser._error("program nests too deeply") from None
    if ast.depth(unit) > MAX_AST_DEPTH:
        raise ParseError("program nests too deeply")
    return unit, tuple([tok.text for tok in parser._tokens[:-1]])


# The memo's size and hit counts, inspected through the entry point.
parse_program.cache_info = _parse_memo.cache_info
parse_program.cache_clear = _parse_memo.cache_clear
