"""Symbol tables and scopes for the C subset.

Symbols carry the storage class distinctions the IR lowering needs:
globals become ``ADDRG``, parameters ``ADDRF``, and locals ``ADDRL``
(exactly lcc's three address operators, which the paper's wire-format
example relies on).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from .ctypes import CType, FunctionType, StructType
from .errors import CompileError, Location

__all__ = ["Storage", "Symbol", "Scope"]


def _is_implicit_fn(t: CType) -> bool:
    """True for the signature given to implicitly declared functions."""
    return isinstance(t, FunctionType) and not t.params and t.variadic


class Storage(enum.Enum):
    """Where a symbol lives — selects the IR address operator."""

    GLOBAL = "global"
    PARAM = "param"
    LOCAL = "local"
    FUNCTION = "function"
    ENUM_CONST = "enum"
    TYPEDEF = "typedef"


@dataclass
class Symbol:
    """A declared name."""

    name: str
    type: CType
    storage: Storage
    location: Location
    enum_value: int = 0  # for ENUM_CONST
    defined: bool = False  # functions/globals: has a body/initializer
    frame_offset: Optional[int] = None  # assigned during IR lowering


class Scope:
    """A lexical scope with separate namespaces for ordinary names and tags.

    C keeps struct/union/enum tags in their own namespace; typedef names
    live in the ordinary namespace (they shadow like variables).
    """

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.parent = parent
        self.names: Dict[str, Symbol] = {}
        self.tags: Dict[str, StructType] = {}

    # -- ordinary namespace -------------------------------------------------

    def declare(self, symbol: Symbol) -> Symbol:
        """Add ``symbol`` to this scope, rejecting incompatible redeclaration.

        Redeclaring a function prototype (same type) is allowed, as is an
        extern redeclaration of a global.
        """
        prior = self.names.get(symbol.name)
        if prior is not None:
            # An implicitly declared function (int f(...) with no fixed
            # params) is superseded by any explicit declaration, and an
            # explicit one tolerates a later implicit use.
            if prior.storage is Storage.FUNCTION and symbol.storage is Storage.FUNCTION:
                if _is_implicit_fn(prior.type):
                    prior.type = symbol.type
                    prior.defined = prior.defined or symbol.defined
                    return prior
                if _is_implicit_fn(symbol.type):
                    return prior
            same_linkage = prior.storage == symbol.storage and prior.type == symbol.type
            redeclarable = prior.storage in (Storage.FUNCTION, Storage.GLOBAL)
            if not (redeclarable and same_linkage):
                raise CompileError(
                    f"redeclaration of '{symbol.name}' (first declared at {prior.location})",
                    symbol.location,
                )
            if symbol.defined and prior.defined and prior.storage is Storage.FUNCTION:
                raise CompileError(f"redefinition of '{symbol.name}'", symbol.location)
            prior.defined = prior.defined or symbol.defined
            return prior
        self.names[symbol.name] = symbol
        return symbol

    def lookup(self, name: str) -> Optional[Symbol]:
        """Find ``name``, walking outward through enclosing scopes."""
        scope: Optional[Scope] = self
        while scope is not None:
            sym = scope.names.get(name)
            if sym is not None:
                return sym
            scope = scope.parent
        return None

    # -- tag namespace -------------------------------------------------------

    def declare_tag(self, tag: str, struct: StructType) -> None:
        self.tags[tag] = struct

    def lookup_tag(self, tag: str, here_only: bool = False) -> Optional[StructType]:
        """Find a struct/union tag; ``here_only`` restricts to this scope."""
        if here_only:
            return self.tags.get(tag)
        scope: Optional[Scope] = self
        while scope is not None:
            s = scope.tags.get(tag)
            if s is not None:
                return s
            scope = scope.parent
        return None
