"""Front-end driver: source text in, checked AST out."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from itertools import islice
from typing import List, Optional

from .astnodes import FrontEndRecord, TranslationUnit
from .errors import Location
from .lexer import Lexer
from .parser import parse, parse_definition
from .sema import analyze, check_definition
from .symbols import Scope

__all__ = ["compile_to_ast", "recompile_definition"]


def compile_to_ast(source: str, filename: str = "<input>") -> TranslationUnit:
    """Lex, parse, and semantically check ``source``.

    Raises :class:`repro.cfront.errors.CompileError` on any failure.
    """
    return analyze(parse(source, filename))


def _prefix(scope: Scope, names: int, tags: int = 0) -> Scope:
    """A new scope holding the first ``names`` names and ``tags`` tags
    declared in ``scope``: ``scope`` as it stood then."""
    out = Scope()
    out.names = dict(islice(scope.names.items(), names))
    out.tags = dict(islice(scope.tags.items(), tags))
    return out


def _line_starts(text: str) -> List[int]:
    """The offset at which each line of ``text`` starts."""
    starts = [0]
    find = text.find
    pos = find("\n")
    while pos >= 0:
        starts.append(pos + 1)
        pos = find("\n", pos + 1)
    return starts


def recompile_definition(
    prev: TranslationUnit, old: str, source: str, filename: str,
    first: int, last: int,
) -> Optional[TranslationUnit]:
    """What :func:`compile_to_ast` makes of ``source``, got from ``prev``
    by re-lexing, re-parsing and re-checking one function definition.

    ``prev`` is the unit compiled from ``old`` under ``filename`` (with
    its :class:`FrontEndRecord`), and ``source`` is ``old`` with
    ``old[first:last]`` replaced by text holding as many newlines.  The
    result shares every other declaration with ``prev``.

    Returns ``None`` when the result could differ from a cold compile:
    ``prev`` kept no record, the edit is not inside one definition's
    body, a width change moves text after its closing brace, or the
    definition changes unit-wide state, its strings' labels or its
    signature.  Raises :class:`repro.cfront.errors.CompileError` when the
    definition fails on its own, or declares anything: see
    :func:`parse_definition` and :func:`check_definition`.  ``prev`` is
    only read.
    """
    record = prev.record
    if record is None:
        return None
    lines = _line_starts(old)

    def offset(loc: Location) -> int:
        return lines[loc.line - 1] + loc.column - 1

    # The one definition whose braces enclose the edit.
    definitions = record.definitions
    index = bisect_right([offset(d.start) for d in definitions], first) - 1
    if index < 0:
        return None
    before = definitions[index]
    end = offset(before.end)  # its closing brace
    if (before.declares
            or not offset(before.function.body.location) < first
            or last > end):
        return None
    shift = len(source) - len(old)
    end += shift
    line_end = source.find("\n", end)
    if shift and source[end + 1:None if line_end < 0 else line_end].strip():
        return None  # a declaration after it on its last line moves

    tokens = Lexer(source, filename, offset(before.start), end + 1).tokens()
    definition = parse_definition(tokens, _prefix(record.scope, *before.scope))
    strings = prev.strings
    interned = check_definition(definition.function,
                                _prefix(record.symbols, before.symbols),
                                strings[:before.strings])
    after = (definitions[index + 1].strings
             if index + 1 < len(definitions) else len(strings))
    fn, old_fn = definition.function, before.function
    line_start = source.rfind("\n", 0, end) + 1
    if (interned != strings[before.strings:after]
            or definition.end != Location(filename, before.end.line,
                                          end - line_start + 1)
            or (fn.name, fn.type, fn.is_static)
            != (old_fn.name, old_fn.type, old_fn.is_static)):
        return None
    definitions = list(definitions)
    definitions[index] = replace(before, function=fn, end=definition.end)
    functions = [fn if f is old_fn else f for f in prev.functions]
    return TranslationUnit(list(prev.globals), functions, list(strings),
                           FrontEndRecord(record.scope, definitions,
                                          record.symbols))
