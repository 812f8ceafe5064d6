"""Diagnostics for the C front end.

All front-end phases raise :class:`CompileError` with a source location;
the driver converts locations to ``file:line:col`` text.  A separate
:class:`Diagnostics` accumulator lets the semantic analyzer report several
independent errors before giving up.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

__all__ = ["Location", "CompileError", "Diagnostics"]


class Location(NamedTuple):
    """A position in a source file (1-based line and column).

    A named tuple, because the lexer builds one per token.  Equality
    still requires both sides to be locations: one never equals a plain
    tuple.
    """

    filename: str
    line: int
    column: int

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Location and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class CompileError(Exception):
    """Any front-end failure: lexical, syntactic, or semantic."""

    def __init__(self, message: str, location: Optional[Location] = None) -> None:
        self.message = message
        self.location = location
        prefix = f"{location}: " if location else ""
        super().__init__(f"{prefix}{message}")


class Diagnostics:
    """Accumulates errors so semantic analysis can report more than one."""

    def __init__(self, limit: int = 20) -> None:
        self.errors: List[CompileError] = []
        self.limit = limit

    def error(self, message: str, location: Optional[Location] = None) -> None:
        """Record an error; raises immediately once ``limit`` is reached."""
        err = CompileError(message, location)
        self.errors.append(err)
        if len(self.errors) >= self.limit:
            raise err

    def check(self) -> None:
        """Raise the first recorded error, if any."""
        if self.errors:
            raise self.errors[0]

    @property
    def ok(self) -> bool:
        """True when no errors have been recorded."""
        return not self.errors
