"""AST node definitions for the C subset.

Nodes are plain dataclasses.  The parser produces them untyped
(``ctype`` is None); semantic analysis fills in ``ctype`` on expressions
and may rewrite children (inserting implicit conversions, decaying arrays,
folding constants).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .ctypes import CType
from .errors import Location
from .symbols import Scope

__all__ = [
    "Expr", "IntLit", "FloatLit", "StringLit", "NameRef", "Unary", "Binary",
    "Assign", "Conditional", "Call", "Index", "Member", "Cast", "SizeofType",
    "IncDec", "ImplicitCast",
    "Stmt", "ExprStmt", "Block", "If", "While", "DoWhile", "For", "Return",
    "Break", "Continue", "Switch", "Case", "EmptyStmt", "DeclStmt",
    "Declarator", "VarDecl", "ParamDecl", "FunctionDef", "TranslationUnit",
    "Initializer", "InitList", "Definition", "FrontEndRecord",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base expression node; ``ctype`` is set by sema."""

    location: Location
    ctype: Optional[CType] = field(default=None, init=False)


@dataclass
class IntLit(Expr):
    """Integer (or character) literal."""

    value: int = 0


@dataclass
class FloatLit(Expr):
    """Floating literal."""

    value: float = 0.0


@dataclass
class StringLit(Expr):
    """String literal; sema assigns it a char-array type and a label."""

    value: str = ""
    label: Optional[str] = field(default=None, init=False)


@dataclass
class NameRef(Expr):
    """Reference to a declared name; sema links the symbol."""

    name: str = ""
    symbol: object = field(default=None, init=False)


@dataclass
class Unary(Expr):
    """Prefix unary operator: one of ``- + ~ ! * &``."""

    op: str = ""
    operand: Optional[Expr] = None


@dataclass
class Binary(Expr):
    """Binary operator (arithmetic, relational, shift, logical)."""

    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class Assign(Expr):
    """Assignment; ``op`` is '=' or a compound operator like '+='."""

    op: str = "="
    target: Optional[Expr] = None
    value: Optional[Expr] = None


@dataclass
class Conditional(Expr):
    """The ternary ``cond ? then : else`` operator."""

    cond: Optional[Expr] = None
    then: Optional[Expr] = None
    otherwise: Optional[Expr] = None


@dataclass
class Call(Expr):
    """Function call."""

    func: Optional[Expr] = None
    args: List[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    """Array subscript ``base[index]``."""

    base: Optional[Expr] = None
    index: Optional[Expr] = None


@dataclass
class Member(Expr):
    """Member access; ``arrow`` distinguishes ``->`` from ``.``."""

    base: Optional[Expr] = None
    name: str = ""
    arrow: bool = False
    offset: int = field(default=0, init=False)  # set by sema


@dataclass
class Cast(Expr):
    """Explicit cast ``(type)expr``."""

    target: Optional[CType] = None
    operand: Optional[Expr] = None


@dataclass
class ImplicitCast(Expr):
    """Conversion inserted by sema (never produced by the parser)."""

    operand: Optional[Expr] = None


@dataclass
class SizeofType(Expr):
    """``sizeof(type)``; ``sizeof expr`` is folded by sema into IntLit."""

    target: Optional[CType] = None


@dataclass
class IncDec(Expr):
    """Increment/decrement; ``postfix`` selects value semantics."""

    op: str = "++"
    operand: Optional[Expr] = None
    postfix: bool = False


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base statement node."""

    location: Location


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for effect."""

    expr: Optional[Expr] = None


@dataclass
class EmptyStmt(Stmt):
    """A bare ``;``."""


@dataclass
class Block(Stmt):
    """A ``{ ... }`` compound statement with its own scope."""

    body: List[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Optional[Expr] = None
    then: Optional[Stmt] = None
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class DoWhile(Stmt):
    body: Optional[Stmt] = None
    cond: Optional[Expr] = None


@dataclass
class For(Stmt):
    init: Optional[Union[Expr, "DeclStmt"]] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Case(Stmt):
    """A ``case value:`` or ``default:`` label plus the labelled statement.

    Switch bodies are parsed as blocks whose items may be Case nodes.
    """

    value: Optional[Expr] = None  # None means default
    body: Optional[Stmt] = None
    const_value: Optional[int] = field(default=None, init=False)  # set by sema


@dataclass
class Switch(Stmt):
    scrutinee: Optional[Expr] = None
    body: Optional[Stmt] = None


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Initializer:
    """A scalar initializer expression."""

    location: Location
    expr: Optional[Expr] = None


@dataclass
class InitList:
    """A brace-enclosed initializer list (arrays/structs)."""

    location: Location
    items: List[Union[Initializer, "InitList"]] = field(default_factory=list)


@dataclass
class Declarator:
    """A parsed declarator: the name and its derived type."""

    name: str
    type: CType
    location: Location


@dataclass
class VarDecl:
    """A variable declaration (global or local)."""

    name: str
    type: CType
    location: Location
    init: Optional[Union[Initializer, InitList]] = None
    is_static: bool = False
    is_extern: bool = False
    symbol: object = field(default=None, init=False)


@dataclass
class DeclStmt(Stmt):
    """One or more local variable declarations inside a block."""

    decls: List[VarDecl] = field(default_factory=list)


@dataclass
class ParamDecl:
    """A function parameter."""

    name: str
    type: CType
    location: Location
    symbol: object = field(default=None, init=False)


@dataclass
class FunctionDef:
    """A function definition (or prototype when ``body`` is None)."""

    name: str
    type: CType  # FunctionType
    params: List[ParamDecl]
    location: Location
    body: Optional[Block] = None
    is_static: bool = False


@dataclass
class Definition:
    """Where the front end met one function definition, and the
    unit-wide state it found there: what re-parsing the definition alone
    needs (see :mod:`repro.pipeline.incremental`)."""

    function: FunctionDef
    start: Location  # its first token
    end: Location  # its closing brace
    #: Names and tags in the parser's top-level scope before it.
    scope: Tuple[int, int]
    #: It changed unit-wide state: declared a top-level name or tag or
    #: defined a tag (parser), or declared a function implicitly or
    #: hoisted a static local (sema).  String labels are counted apart.
    declares: bool = False
    #: Sema's global symbols and interned string labels before it.
    symbols: int = 0
    strings: int = 0


@dataclass
class FrontEndRecord:
    """A unit's top-level scopes and :class:`Definition` list, kept by
    :func:`repro.cfront.parse` and :func:`repro.cfront.analyze`.  Both
    scopes only grow, so a prefix of either is the scope as it stood
    when an earlier definition was met."""

    scope: Scope  # the parser's: typedef names, enum constants, tags
    definitions: List[Definition] = field(default_factory=list)
    symbols: Optional[Scope] = None  # sema's global scope


@dataclass
class TranslationUnit:
    """A whole source file: globals and functions in declaration order."""

    globals: List[VarDecl] = field(default_factory=list)
    functions: List[FunctionDef] = field(default_factory=list)
    strings: List[Tuple[str, str]] = field(default_factory=list)  # (label, text)
    record: Optional[FrontEndRecord] = field(default=None, compare=False,
                                             repr=False)
