"""C lexer tests."""

import random

import pytest

from repro.cfront.errors import CompileError
from repro.cfront.lexer import tokenize
from repro.cfront.parser import parse
from repro.cfront.tokens import TokenKind as TK
from repro.corpus import generate_program_source, suite_source
from repro.corpus.samples import get_sample, sample_names
from repro.pipeline import Toolchain

from .reference_lexer import reference_tokenize


def kinds(src):
    return [t.kind for t in tokenize(src)][:-1]  # drop EOF


def values(src):
    return [t.value for t in tokenize(src)][:-1]


class TestBasics:
    def test_empty_input_gives_eof(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind is TK.EOF

    def test_identifiers_and_keywords(self):
        assert kinds("int foo") == [TK.KW_INT, TK.IDENT]

    def test_identifier_with_underscore_and_digits(self):
        toks = tokenize("_f00_bar")
        assert toks[0].kind is TK.IDENT and toks[0].value == "_f00_bar"

    def test_all_keywords_recognized(self):
        for kw in ("void", "char", "short", "int", "long", "float", "double",
                   "signed", "unsigned", "struct", "union", "enum", "typedef",
                   "static", "extern", "const", "if", "else", "while", "do",
                   "for", "switch", "case", "default", "break", "continue",
                   "return", "sizeof", "goto"):
            toks = tokenize(kw)
            assert toks[0].kind.name == f"KW_{kw.upper()}", kw


class TestNumbers:
    def test_decimal(self):
        assert values("0 7 12345") == [0, 7, 12345]

    def test_hex(self):
        assert values("0x0 0xff 0xDEAD") == [0, 255, 0xDEAD]

    def test_hex_with_suffix(self):
        assert values("0x7fffffffu") == [0x7FFFFFFF]

    def test_octal(self):
        assert values("017 010") == [15, 8]

    def test_bad_octal_rejected(self):
        with pytest.raises(CompileError):
            tokenize("09")

    def test_suffixes(self):
        assert values("42u 42L 42ul") == [42, 42, 42]

    def test_floats(self):
        assert values("1.5 0.25 2e3 1.5e-2") == [1.5, 0.25, 2000.0, 0.015]

    def test_float_kind(self):
        assert kinds("3.14") == [TK.FLOAT_LIT]

    def test_leading_dot_float(self):
        assert values(".5") == [0.5]

    def test_hex_needs_digits(self):
        with pytest.raises(CompileError):
            tokenize("0x")


class TestCharsAndStrings:
    def test_plain_char(self):
        assert values("'a'") == [ord("a")]

    def test_escapes(self):
        assert values(r"'\n' '\t' '\0' '\\' '\''") == [10, 9, 0, 92, 39]

    def test_hex_escape(self):
        assert values(r"'\x41'") == [0x41]

    def test_octal_escape(self):
        assert values(r"'\101'") == [65]

    def test_unknown_escape_rejected(self):
        with pytest.raises(CompileError):
            tokenize(r"'\q'")

    def test_unterminated_char(self):
        with pytest.raises(CompileError):
            tokenize("'a")

    def test_string_literal(self):
        assert values('"hello"') == ["hello"]

    def test_string_with_escapes(self):
        assert values(r'"a\nb\0"') == ["a\nb\0"]

    def test_adjacent_strings_concatenate(self):
        assert values('"foo" "bar"') == ["foobar"]

    def test_unterminated_string(self):
        with pytest.raises(CompileError):
            tokenize('"abc')


class TestOperators:
    def test_longest_match_wins(self):
        assert kinds("<<= << <") == [TK.LSHIFT_ASSIGN, TK.LSHIFT, TK.LT]

    def test_arrows_and_dots(self):
        assert kinds("-> . ...") == [TK.ARROW, TK.DOT, TK.ELLIPSIS]

    def test_increments(self):
        assert kinds("++ -- + -") == \
            [TK.PLUSPLUS, TK.MINUSMINUS, TK.PLUS, TK.MINUS]

    def test_compound_assigns(self):
        assert kinds("+= -= *= /= %= &= |= ^= >>=") == [
            TK.PLUS_ASSIGN, TK.MINUS_ASSIGN, TK.STAR_ASSIGN, TK.SLASH_ASSIGN,
            TK.PERCENT_ASSIGN, TK.AMP_ASSIGN, TK.PIPE_ASSIGN, TK.CARET_ASSIGN,
            TK.RSHIFT_ASSIGN,
        ]

    def test_logical(self):
        assert kinds("&& || !") == [TK.AMPAMP, TK.PIPEPIPE, TK.BANG]


class TestTrivia:
    def test_line_comment(self):
        assert kinds("1 // comment\n2") == [TK.INT_LIT, TK.INT_LIT]

    def test_block_comment(self):
        assert kinds("1 /* x\ny */ 2") == [TK.INT_LIT, TK.INT_LIT]

    def test_unterminated_block_comment(self):
        with pytest.raises(CompileError):
            tokenize("/* never closed")

    def test_locations_track_lines(self):
        toks = tokenize("a\n  b")
        assert toks[0].location.line == 1 and toks[0].location.column == 1
        assert toks[1].location.line == 2 and toks[1].location.column == 3

    def test_unexpected_character(self):
        with pytest.raises(CompileError):
            tokenize("int $x;")


class TestEndOfInput:
    """Regression: literals at end-of-input must terminate (the empty
    lookahead string is a member of every Python string, so naive
    membership loops spin forever at EOF)."""

    def test_decimal_at_eof(self):
        assert values("12345") == [12345]

    def test_hex_at_eof(self):
        assert values("0xff") == [255]

    def test_suffix_at_eof(self):
        assert values("42u") == [42]
        assert values("42UL") == [42]

    def test_float_at_eof(self):
        assert values("1.5") == [1.5]

    def test_digit_then_e_at_eof(self):
        # '1e' with nothing after: 'e' is not an exponent here.
        toks = tokenize("1e")
        assert toks[0].value == 1
        assert toks[1].kind is TK.IDENT


class TestCDigits:
    """C's digits are 0-9 (C99 6.4.4.1); other Unicode digits are not."""

    @pytest.mark.parametrize("ch", ["²", "٣"], ids=["sup2", "arabic3"])
    def test_unicode_digit_is_an_unexpected_character(self, ch):
        with pytest.raises(CompileError) as exc_info:
            tokenize(f"int x = {ch};")
        assert str(exc_info.value) == f"<input>:1:9: unexpected character {ch!r}"

    def test_unicode_digit_after_a_number(self):
        with pytest.raises(CompileError, match=r"1:2: unexpected character"):
            tokenize("1²")

    def test_unicode_digit_continues_an_identifier(self):
        # Identifier characters are str.isalnum(), as before.
        assert values("x²") == ["x²"]

    def test_octal_escapes_take_octal_digits_only(self):
        with pytest.raises(CompileError, match=r"1:3: unknown escape sequence \\8"):
            tokenize(r"'\8'")
        with pytest.raises(CompileError, match="exactly one character"):
            tokenize(r"'\18'")
        assert values(r'"\18"') == ["\x018"]

    def test_compile_reports_a_compile_error(self):
        with pytest.raises(CompileError, match="unexpected character"):
            Toolchain().compile("int main(void){ int x = ²; return 0; }")


class TestCharLiteralText:
    def test_text_is_the_spelling(self):
        toks = tokenize(r"'a' '\n' '\x41' '''")
        assert [t.text for t in toks[:-1]] == ["'a'", r"'\n'", r"'\x41'", "'''"]

    def test_parser_message_shows_the_literal(self):
        with pytest.raises(CompileError) as exc_info:
            parse("int x = 1 'a';")
        assert str(exc_info.value) == (
            "<input>:1:11: expected ';', found character literal \"'a'\"")


class TestLocations:
    def test_concatenated_string_spans_lines(self):
        toks = tokenize('"a" /* \n */\n "b" x\ny')
        assert [(t.location.line, t.location.column) for t in toks] == [
            (1, 1), (3, 6), (4, 1), (4, 2)]

    def test_error_columns(self):
        cases = {
            "  0x;": "1:5: hexadecimal literal needs digits",
            "\n 09;": "2:4: invalid octal literal '09'",
            'x "ab\\x"': "1:8: \\x needs hex digits",
            'x "ab\ncd"': "1:6: unterminated string literal",
            "'ab'": "1:3: character literal must hold exactly one character",
            "x\n'": "2:2: unterminated character literal",
            "a /* b": "1:3: unterminated block comment",
            "a $": "1:3: unexpected character '$'",
        }
        for source, message in cases.items():
            with pytest.raises(CompileError) as exc_info:
                tokenize(source)
            assert str(exc_info.value) == f"<input>:{message}", source


# ---------------------------------------------------------------------------
# The scanner against the reference lexer, and a cfront mutation fuzz
# ---------------------------------------------------------------------------

#: Spliced into sources by the fuzz: quotes, escapes, comment openers and
#: closers, number prefixes, and non-ASCII digit and letter characters.
MUTATION_ALPHABET = ("'", '"', "\\", "/*", "*/", "//", "0x", "1e", ".",
                     "²", "é")


def corpus_units():
    units = [get_sample(name) for name in sample_names()]
    units += [suite_source(name) for name in ("wc", "lcc", "gcc")]
    units += [generate_program_source(functions=6, seed=seed)
              for seed in range(20)]
    return units


def mutations(seed, count, units, window=1500):
    """``count`` seeded mutations of ``units`` (of a ``window``-character
    slice of a longer unit): deletions, duplications and insertions from
    the alphabet above."""
    rng = random.Random(seed)
    for _ in range(count):
        source = rng.choice(units)
        lo = rng.randrange(max(1, len(source) - window))
        source = source[lo:lo + window]
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(source) + 1)
            roll = rng.random()
            if roll < 0.3:
                source = source[:at] + source[at + rng.randint(1, 4):]
            elif roll < 0.5:
                end = min(len(source), at + rng.randint(1, 8))
                source = source[:end] + source[at:end] + source[end:]
            else:
                source = source[:at] + rng.choice(MUTATION_ALPHABET) + source[at:]
        yield source


def lex_outcome(lex, source):
    try:
        return lex(source, "unit.c")
    except CompileError as exc:
        return str(exc)


class TestAgainstReference:
    def test_corpus_tokens_equal(self):
        for source in corpus_units():
            assert tokenize(source) == reference_tokenize(source)

    def test_mutated_sources_lex_alike(self):
        for source in mutations(seed=19, count=300, units=corpus_units()):
            assert lex_outcome(tokenize, source) == \
                lex_outcome(reference_tokenize, source), repr(source)

    def test_mutated_sources_compile_or_raise_compile_error(self):
        # Whole units, so that many mutations still compile.
        units = [source for source in corpus_units() if len(source) < 5000]
        tc = Toolchain()
        compiled = 0
        for i, source in enumerate(mutations(seed=23, count=120, units=units,
                                             window=5000)):
            try:
                tc.compile(source, name=f"m{i}", stages=("codegen", "wire"))
                compiled += 1
            except CompileError:
                pass
        assert compiled >= 10
