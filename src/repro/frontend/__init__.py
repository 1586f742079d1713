"""C-subset frontend: lexer, parser, typed AST, semantic checks, printers.

The accepted language is the Varity grammar of the paper's Figure 2 plus
the constructs LLM-style generation produces within the paper's guidelines
(§2.3.1): ``stdio.h``/``stdlib.h``/``math.h`` only, two functions
(``compute`` and ``main``), scalar and array locals, nested ``for`` loops,
``if``/``else``, calls into the C math library, and ternary expressions.
"""

from repro.frontend.lexer import tokenize
from repro.frontend.parser import Parser, parse_program
from repro.frontend.sema import SemanticChecker, check_program
from repro.frontend.printer import print_c, print_cuda
from repro.frontend import ast

__all__ = [
    "tokenize",
    "Parser",
    "parse_program",
    "SemanticChecker",
    "check_program",
    "print_c",
    "print_cuda",
    "ast",
]
