"""The character-at-a-time C lexer, kept as the reference for the scanner.

:mod:`repro.cfront.lexer` scans with one compiled master regular
expression.  This is the cursor-driven lexer it replaced, with the same
fixes applied, so the two agree by design:

* numbers and octal escapes use only C's digits (``0``-``9`` and
  ``0``-``7``), so ``²``, ``٣`` or ``\\8`` are lexical errors rather than
  a raw ``ValueError`` or a silently accepted value;
* a character literal's token text is its spelling as written.

``tests/test_lexer.py`` requires equal token lists, or equal
``CompileError`` text, from both lexers.
"""

from __future__ import annotations

from typing import List

from repro.cfront.errors import CompileError, Location
from repro.cfront.tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

__all__ = ["ReferenceLexer", "reference_tokenize"]

_ESCAPES = {
    "n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34,
    "a": 7, "b": 8, "f": 12, "v": 11,
}
_DIGITS = "0123456789"
_OCTAL = "01234567"
_HEX = "0123456789abcdefABCDEF"


def _is_digit(ch: str) -> bool:
    return ch != "" and ch in _DIGITS


class ReferenceLexer:
    """Single-pass scanner producing a list of :class:`Token`."""

    def __init__(self, text: str, filename: str = "<input>") -> None:
        self.text = text
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1

    # -- low-level helpers -------------------------------------------------

    def _loc(self) -> Location:
        return Location(self.filename, self.line, self.col)

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _error(self, message: str) -> CompileError:
        return CompileError(message, self._loc())

    # -- scanning ----------------------------------------------------------

    def tokens(self) -> List[Token]:
        """Scan the whole input, ending with an EOF token."""
        out: List[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.text):
                out.append(Token(TokenKind.EOF, "", self._loc()))
                return out
            out.append(self._next_token())

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._loc()
                self._advance(2)
                while self.pos < len(self.text):
                    if self.text[self.pos] == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise CompileError("unterminated block comment", start)
            else:
                return

    def _next_token(self) -> Token:
        loc = self._loc()
        ch = self.text[self.pos]
        if ch.isalpha() or ch == "_":
            return self._identifier(loc)
        if _is_digit(ch) or (ch == "." and _is_digit(self._peek(1))):
            return self._number(loc)
        if ch == "'":
            return self._char_literal(loc)
        if ch == '"':
            return self._string_literal(loc)
        for text, kind in PUNCTUATORS:
            if self.text.startswith(text, self.pos):
                self._advance(len(text))
                return Token(kind, text, loc)
        raise self._error(f"unexpected character {ch!r}")

    def _identifier(self, loc: Location) -> Token:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self._advance()
        text = self.text[start : self.pos]
        kind = KEYWORDS.get(text)
        if kind is not None:
            return Token(kind, text, loc)
        return Token(TokenKind.IDENT, text, loc, value=text)

    def _number(self, loc: Location) -> Token:
        start = self.pos
        text = self.text
        is_float = False
        if text.startswith(("0x", "0X"), self.pos):
            self._advance(2)
            ch = self._peek()
            if not ch or ch not in _HEX:
                raise self._error("hexadecimal literal needs digits")
            while self._peek() and self._peek() in _HEX:
                self._advance()
            spelled = text[start : self.pos]
            value = int(spelled, 16)
        else:
            while _is_digit(self._peek()):
                self._advance()
            if self._peek() == "." and self._peek(1) != ".":
                is_float = True
                self._advance()
                while _is_digit(self._peek()):
                    self._advance()
            if self._peek() and self._peek() in "eE" and (
                _is_digit(self._peek(1))
                or (self._peek(1) in "+-" and _is_digit(self._peek(2)))
            ):
                is_float = True
                self._advance()
                if self._peek() and self._peek() in "+-":
                    self._advance()
                while _is_digit(self._peek()):
                    self._advance()
            spelled = text[start : self.pos]
            if is_float:
                value = float(spelled)
            elif spelled.startswith("0") and len(spelled) > 1:
                try:
                    value = int(spelled, 8)
                except ValueError:
                    raise self._error(f"invalid octal literal {spelled!r}") from None
            else:
                value = int(spelled, 10)
        # Suffixes: U/L in any order (float: F/L).  Suffixes only affect
        # signedness/width decisions in sema; the lexer records spelling.
        suffix_start = self.pos
        while self._peek() and self._peek() in "uUlLfF":
            self._advance()
        suffix = text[suffix_start : self.pos].lower()
        full = text[start : self.pos]
        if is_float or "f" in suffix and not full.lower().startswith("0x"):
            if not is_float and "f" in suffix:
                value = float(spelled)
            return Token(TokenKind.FLOAT_LIT, full, loc, value=float(value))
        return Token(TokenKind.INT_LIT, full, loc, value=int(value))

    def _escape(self) -> int:
        """Decode the body of an escape sequence (cursor past the backslash)."""
        ch = self._peek()
        if ch == "x":
            self._advance()
            digits = ""
            while self._peek() and self._peek() in _HEX:
                digits += self._peek()
                self._advance()
            if not digits:
                raise self._error("\\x needs hex digits")
            return int(digits, 16) & 0xFF
        if ch != "" and ch in _OCTAL:
            digits = ""
            while self._peek() and self._peek() in _OCTAL and len(digits) < 3:
                digits += self._peek()
                self._advance()
            return int(digits, 8) & 0xFF
        if ch in _ESCAPES:
            self._advance()
            return _ESCAPES[ch]
        raise self._error(f"unknown escape sequence \\{ch}")

    def _char_literal(self, loc: Location) -> Token:
        start = self.pos
        self._advance()  # opening quote
        if self._peek() == "\\":
            self._advance()
            value = self._escape()
        elif self._peek() in ("", "\n"):
            raise self._error("unterminated character literal")
        else:
            value = ord(self._peek())
            self._advance()
        if self._peek() != "'":
            raise self._error("character literal must hold exactly one character")
        self._advance()
        return Token(TokenKind.CHAR_LIT, self.text[start : self.pos], loc,
                     value=value)

    def _string_literal(self, loc: Location) -> Token:
        chars: List[int] = []
        # Adjacent string literals concatenate, as in C.
        while self._peek() == '"':
            self._advance()
            while True:
                ch = self._peek()
                if ch in ("", "\n"):
                    raise self._error("unterminated string literal")
                if ch == '"':
                    self._advance()
                    break
                if ch == "\\":
                    self._advance()
                    chars.append(self._escape())
                else:
                    chars.append(ord(ch))
                    self._advance()
            self._skip_trivia()
        value = "".join(chr(c) for c in chars)
        return Token(TokenKind.STRING_LIT, value, loc, value=value)


def reference_tokenize(text: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``text`` with the reference lexer."""
    return ReferenceLexer(text, filename).tokens()
