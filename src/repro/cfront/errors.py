"""Diagnostics for the C front end.

All front-end phases raise :class:`CompileError` with a source location,
which prints as ``file:line:col``.  The class is the compile family of
:mod:`repro.errors`, re-exported here.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import CompileError

__all__ = ["Location", "CompileError"]


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
