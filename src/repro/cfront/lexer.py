"""Lexer for the C subset.

Handles identifiers/keywords, decimal/octal/hex integer literals with U/L
suffixes, floating literals, character and string literals with the usual
escape sequences, both comment styles, and all multi-character operators.
There is no preprocessor: the corpus is written without macros (enums and
``const`` cover the common cases).

The scanner is one compiled master regular expression, in the style of
zhouder/parser_c's ``matcher.py``.  Each match is the trivia (whitespace
and comments) before a token plus exactly one named alternative: a token
class, end of input, or a lexical error.  An error alternative matches
the text up to the position the error is reported at.  Escapes are
decoded from the matched literal's text.

Every repetition in the expression is deterministic (a whitespace run,
comment or escape can match in only one way), so a literal that fails
to continue backtracks in linear time.  C's digits are ``0``-``9``;
identifiers start with any letter or ``_`` and continue with any letter,
digit or ``_`` (``str.isalpha`` and ``str.isalnum``).
"""

from __future__ import annotations

import re
from typing import List, Optional

from .errors import CompileError, Location
from .tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

__all__ = ["Lexer", "tokenize"]

_ESCAPES = {
    "n": 10, "t": 9, "r": 13, "\\": 92, "'": 39, '"': 34,
    "a": 7, "b": 8, "f": 12, "v": 11,
}

_HEX = "[0-9a-fA-F]"
# An escape after its backslash: \x with every following hex digit, one
# to three octal digits (as many as there are), or a one-letter escape.
_ESCAPE_BODY = (rf"(?:x{_HEX}+(?!{_HEX})|[0-7]{{3}}|[0-7]{{1,2}}(?![0-7])"
                rf"|[{re.escape(''.join(_ESCAPES))}])")
_ESCAPE = r"\\" + _ESCAPE_BODY
_STRING_BODY = rf'(?:[^"\\\n]|{_ESCAPE})*'
_CHAR_UNIT = rf"(?:[^\\\n]|{_ESCAPE})"
_TRIVIA = (r"(?:[ \t\r\n]+(?![ \t\r\n])"       # a whole whitespace run
           r"|//[^\n]*(?![^\n])"               # a whole line comment
           r"|/\*(?:[^*]|\*(?!/))*\*/)*")      # a comment, to its first */
_EXPONENT = r"[eE][+-]?[0-9]+"
_SUFFIX = "[uUlLfF]*"

# Token alternatives, in the order they are tried.  Floats precede the
# '.' punctuator and the integers; a bad octal and a bare 0x precede the
# integers; an unterminated comment precedes the '/' punctuator.  The
# error alternatives for literals only run where the valid form failed.
_ALTERNATIVES = (
    ("ident", r"[A-Za-z_]\w*"),
    ("float", rf"(?:[0-9]+(?:\.(?!\.)[0-9]*(?:{_EXPONENT})?|{_EXPONENT})"
              rf"|\.[0-9]+(?:{_EXPONENT})?){_SUFFIX}"),
    ("bad_octal", "0[0-9]*[89][0-9]*"),
    ("hex", rf"0[xX](?P<hex_digits>{_HEX}+){_SUFFIX}"),
    ("bare_hex", "0[xX]"),
    ("int", f"[0-9]+{_SUFFIX}"),
    ("open_comment", r"/\*"),
    ("punct", "|".join(re.escape(text) for text, _ in PUNCTUATORS)),
    ("string", rf'"(?P<first_body>{_STRING_BODY})"(?:{_TRIVIA}"{_STRING_BODY}")*'),
    ("char", rf"'{_CHAR_UNIT}'"),
    ("bad_hex_escape", rf"""(?:'|"{_STRING_BODY})\\x(?!{_HEX})"""),
    ("bad_escape", rf"""(?:'|"{_STRING_BODY})\\(?!{_ESCAPE_BODY})"""),
    ("open_string", rf'"{_STRING_BODY}'),
    ("long_char", f"'{_CHAR_UNIT}"),
    ("open_char", "'"),
    ("eof", r"\Z"),
    ("other", r"\w+|."),
)

_MASTER = re.compile(
    _TRIVIA + "(?:" + "|".join(f"(?P<{name}>{pattern})"
                               for name, pattern in _ALTERNATIVES) + ")",
    re.DOTALL)
_GROUP = _MASTER.groupindex
(_IDENT, _PUNCT, _INT, _FLOAT, _STRING, _CHAR, _HEX_LIT, _EOF, _OTHER,
 _OPEN_COMMENT) = (
    _GROUP[name] for name in
    ("ident", "punct", "int", "float", "string", "char", "hex", "eof",
     "other", "open_comment"))

#: Error alternative -> message, reported at the end of the match; ``{0}``
#: is the matched text and ``{1}`` the character after it.
_ERRORS = {_GROUP[name]: message for name, message in (
    ("bad_octal", "invalid octal literal {0!r}"),
    ("bare_hex", "hexadecimal literal needs digits"),
    ("bad_hex_escape", "\\x needs hex digits"),
    ("bad_escape", "unknown escape sequence \\{1}"),
    ("open_string", "unterminated string literal"),
    ("long_char", "character literal must hold exactly one character"),
    ("open_char", "unterminated character literal"),
)}

_PUNCT_KIND = dict(PUNCTUATORS)
_STRING_PIECE = re.compile(rf'{_TRIVIA}"({_STRING_BODY})"', re.DOTALL)
_ESCAPE_PARTS = re.compile(rf"\\(?:x({_HEX}+)|([0-7]{{1,3}})|(.))", re.DOTALL)


def _escape_char(m: "re.Match[str]") -> str:
    hex_digits, octal, letter = m.groups()
    if letter is not None:
        return chr(_ESCAPES[letter])
    return chr(int(hex_digits, 16) & 0xFF if hex_digits else int(octal, 8) & 0xFF)


def _decode(body: str) -> str:
    """The characters a literal's body (quotes stripped) denotes."""
    return _ESCAPE_PARTS.sub(_escape_char, body) if "\\" in body else body


class Lexer:
    """Single-pass scanner producing a list of :class:`Token`.

    ``start`` and ``end`` scan only ``text[start:end]``, in place: the
    tokens' locations are those of the whole text, and the EOF token
    sits at ``end``.
    """

    def __init__(self, text: str, filename: str = "<input>", start: int = 0,
                 end: Optional[int] = None) -> None:
        self.text = text
        self.filename = filename
        self.start = start
        self.end = len(text) if end is None else end

    def tokens(self) -> List[Token]:
        """Scan the input, ending with an EOF token."""
        text = self.text
        filename = self.filename
        start = self.start
        count = text.count
        # Token and Location are named tuples: build them without a
        # Python-level __new__ call, one per token.
        new = tuple.__new__
        ident, punct, integer, eof = _IDENT, _PUNCT, _INT, _EOF
        ident_kind, int_kind = TokenKind.IDENT, TokenKind.INT_LIT
        keywords = KEYWORDS
        punct_kind = _PUNCT_KIND
        out: List[Token] = []
        append = out.append
        line = count("\n", 0, start) + 1
        line_start = text.rfind("\n", 0, start) + 1
        # Newlines are counted from the previous token's start, so the
        # trivia inside a concatenated string literal is counted too.
        prev = start
        # Every position matches an alternative, so the matches tile the
        # text; the end-of-input alternative ends the loop.
        for m in _MASTER.finditer(text, start, self.end):
            group = m.lastindex
            start, end = m.span(group)
            newlines = count("\n", prev, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", prev, start) + 1
            prev = start
            loc = new(Location, (filename, line, start - line_start + 1))
            if group == ident:
                word = text[start:end]
                kind = keywords.get(word)
                if kind is None:
                    append(new(Token, (ident_kind, word, loc, word)))
                else:
                    append(new(Token, (kind, word, loc, None)))
            elif group == punct:
                word = text[start:end]
                append(new(Token, (punct_kind[word], word, loc, None)))
            elif group == integer and text[end - 1] in "0123456789":
                word = text[start:end]
                value = int(word, 8) if word[0] == "0" else int(word)
                append(new(Token, (int_kind, word, loc, value)))
            elif group == eof:
                append(new(Token, (TokenKind.EOF, "", loc, None)))
                break
            else:
                append(self._rare(m, group, loc, line_start))
        return out

    def _rare(self, m: "re.Match[str]", group: int, loc: Location,
              line_start: int) -> Token:
        """The token, or the lexical error, of a less common alternative."""
        text = self.text
        start, end = m.start(group), m.end()
        word = text[start:end]
        if group == _STRING:
            if m.end("first_body") + 1 == end:
                value = _decode(m.group("first_body"))
            else:
                pieces = []
                pos = start
                while pos < end:
                    piece = _STRING_PIECE.match(text, pos)
                    pieces.append(_decode(piece.group(1)))
                    pos = piece.end()
                value = "".join(pieces)
            return Token(TokenKind.STRING_LIT, value, loc, value)
        if group == _CHAR:
            return Token(TokenKind.CHAR_LIT, word, loc, ord(_decode(word[1:-1])))
        if group == _HEX_LIT:
            return Token(TokenKind.INT_LIT, word, loc,
                         int(m.group("hex_digits"), 16))
        if group == _INT or group == _FLOAT:
            spelled = word.rstrip("uUlLfF")
            if group == _FLOAT or "f" in word[len(spelled):].lower():
                return Token(TokenKind.FLOAT_LIT, word, loc, float(spelled))
            value = int(spelled, 8) if spelled[0] == "0" else int(spelled)
            return Token(TokenKind.INT_LIT, word, loc, value)
        if group == _OTHER:
            if word[0].isalpha():
                return Token(TokenKind.IDENT, word, loc, word)
            raise CompileError(f"unexpected character {word[0]!r}", loc)
        if group == _OPEN_COMMENT:
            raise CompileError("unterminated block comment", loc)
        raise CompileError(_ERRORS[group].format(word, text[end:end + 1]),
                           Location(self.filename, loc.line,
                                    end - line_start + 1))


def tokenize(text: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``text``; convenience wrapper over :class:`Lexer`."""
    return Lexer(text, filename).tokens()
