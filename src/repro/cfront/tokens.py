"""Token definitions for the C-subset lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Union

from .errors import Location

__all__ = ["TokenKind", "Token", "KEYWORDS", "PUNCTUATORS"]


class TokenKind(enum.Enum):
    """Lexical categories.

    Keywords each get their own kind so the parser can switch on them
    without string comparison; punctuators likewise.
    """

    EOF = "eof"
    IDENT = "identifier"
    INT_LIT = "integer literal"
    FLOAT_LIT = "floating literal"
    CHAR_LIT = "character literal"
    STRING_LIT = "string literal"

    # Keywords.
    KW_VOID = "void"
    KW_CHAR = "char"
    KW_SHORT = "short"
    KW_INT = "int"
    KW_LONG = "long"
    KW_FLOAT = "float"
    KW_DOUBLE = "double"
    KW_SIGNED = "signed"
    KW_UNSIGNED = "unsigned"
    KW_STRUCT = "struct"
    KW_UNION = "union"
    KW_ENUM = "enum"
    KW_TYPEDEF = "typedef"
    KW_STATIC = "static"
    KW_EXTERN = "extern"
    KW_CONST = "const"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_DO = "do"
    KW_FOR = "for"
    KW_SWITCH = "switch"
    KW_CASE = "case"
    KW_DEFAULT = "default"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_RETURN = "return"
    KW_SIZEOF = "sizeof"
    KW_GOTO = "goto"

    # Punctuators and operators.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    ARROW = "->"
    QUESTION = "?"
    COLON = ":"
    ELLIPSIS = "..."

    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    AMP_ASSIGN = "&="
    PIPE_ASSIGN = "|="
    CARET_ASSIGN = "^="
    LSHIFT_ASSIGN = "<<="
    RSHIFT_ASSIGN = ">>="

    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    BANG = "!"
    LSHIFT = "<<"
    RSHIFT = ">>"
    AMPAMP = "&&"
    PIPEPIPE = "||"
    EQ = "=="
    NE = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    PLUSPLUS = "++"
    MINUSMINUS = "--"


KEYWORDS = {
    kind.value: kind
    for kind in TokenKind
    if kind.name.startswith("KW_")
}

# Punctuators ordered longest-first so the lexer can greedily match.
PUNCTUATORS = sorted(
    (
        (kind.value, kind)
        for kind in TokenKind
        if not kind.name.startswith("KW_")
        and kind
        not in (
            TokenKind.EOF,
            TokenKind.IDENT,
            TokenKind.INT_LIT,
            TokenKind.FLOAT_LIT,
            TokenKind.CHAR_LIT,
            TokenKind.STRING_LIT,
        )
    ),
    key=lambda pair: -len(pair[0]),
)


class Token(NamedTuple):
    """A single lexical token.

    ``value`` carries the decoded payload for literals (``int`` or ``float``
    or ``str``) and the spelling for identifiers.  A named tuple, because
    the lexer builds one per token.  Equality still requires both sides
    to be tokens: one never equals a plain tuple.
    """

    kind: TokenKind
    text: str
    location: Location
    value: Optional[Union[int, float, str]] = None

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Token and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:  # compact, for parser error messages
        if self.kind is TokenKind.IDENT:
            return f"identifier '{self.text}'"
        if self.kind in (TokenKind.INT_LIT, TokenKind.FLOAT_LIT,
                         TokenKind.CHAR_LIT, TokenKind.STRING_LIT):
            return f"{self.kind.value} {self.text!r}"
        return f"'{self.kind.value}'"
