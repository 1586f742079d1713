"""Exception hierarchy for the LLM4FP reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class LexError(ReproError):
    """Raised when the lexer meets a character sequence it cannot tokenize."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column


class ParseError(ReproError):
    """Raised on a syntax error in a candidate program."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column


class SemaError(ReproError):
    """Raised when semantic analysis rejects a program (types, UB lint)."""


class CompileError(ReproError):
    """Raised when a toolchain cannot lower or optimize a program."""


class ExecError(ReproError):
    """Base class for runtime failures of a compiled binary."""


class TrapError(ExecError):
    """Raised when execution hits undefined behaviour (OOB access, etc.)."""


class StepLimitExceeded(ExecError):
    """Raised when a program exceeds its interpretation step budget."""


class ExecutionDivergence(ExecError):
    """Raised in ``check`` exec mode when the tape executor and the
    tree-walk interpreter disagree on any bit of a result."""


class TriageError(ReproError):
    """Raised when a trigger cannot be triaged (not reproducible, unknown
    compiler, or the targeted inconsistency is absent)."""
