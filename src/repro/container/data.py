"""The global-data section, written the same way by both formats.

The WIR2/WIR3 meta stream and the BRI2/BRI3 preamble each carry a
module's globals, with this one writer and reader::

    count
    repeat count times:
        name, size, align, is_string (1 byte), item count
        repeat item count times, by tag byte:
            0: offset, size, zigzag value    (integer cell)
            1: offset, 8-byte double         (double cell)
            2: offset, symbol name           (pointer cell)

Integers are uvarints, names length-prefixed UTF-8 and doubles
:data:`~repro.compress.bitio.DOUBLE` (see :mod:`repro.compress.bitio`).
"""

from __future__ import annotations

from typing import List, Tuple

from ..compress.bitio import (
    DOUBLE, read_byte, read_name, read_uvarint, take_bytes, unzigzag,
    write_name, write_uvarint, zigzag,
)
from ..errors import CorruptStreamError, TruncatedStreamError
from ..ir.tree import GlobalData, PtrInit, ScalarInit

__all__ = ["read_globals", "write_globals"]


def write_globals(out: bytearray, globals_: List[GlobalData]) -> None:
    """Append the section holding ``globals_`` to ``out``."""
    write_uvarint(out, len(globals_))
    for g in globals_:
        write_name(out, g.name)
        write_uvarint(out, g.size)
        write_uvarint(out, g.align)
        out.append(1 if g.is_string else 0)
        write_uvarint(out, len(g.items))
        for item in g.items:
            if isinstance(item, ScalarInit):
                if isinstance(item.value, float) or item.size == 8:
                    out.append(1)
                    write_uvarint(out, item.offset)
                    out += DOUBLE.pack(float(item.value))
                else:
                    out.append(0)
                    write_uvarint(out, item.offset)
                    write_uvarint(out, item.size)
                    write_uvarint(out, zigzag(int(item.value)))
            else:
                out.append(2)
                write_uvarint(out, item.offset)
                write_name(out, item.symbol)


def read_globals(data: bytes, pos: int) -> Tuple[List[GlobalData], int]:
    """Invert :func:`write_globals` at ``pos``; returns ``(globals,
    new_pos)``.

    Every count is checked against the bytes left, and alignment 0,
    which would divide by zero when a loader lays the globals out, is
    rejected.  An item's tag byte and its one-byte uvarints, the bulk of
    a string's cells, are read inline; a wider uvarint, or one cut
    short, goes through :func:`read_uvarint`.
    """
    count, pos = read_uvarint(data, pos)
    end = len(data)
    if count > end - pos:  # each global costs several bytes
        raise TruncatedStreamError(
            f"data section promises {count} globals, "
            f"only {end - pos} bytes remain")
    globals_: List[GlobalData] = []
    for _ in range(count):
        name, pos = read_name(data, pos, "global name")
        size, pos = read_uvarint(data, pos)
        align, pos = read_uvarint(data, pos)
        if align == 0:
            raise CorruptStreamError(f"global {name!r} has alignment 0")
        flag, pos = read_byte(data, pos, "global flags")
        nitems, pos = read_uvarint(data, pos)
        if nitems > len(data) - pos:
            raise TruncatedStreamError(
                f"global {name!r} promises {nitems} items, "
                f"only {len(data) - pos} bytes remain")
        g = GlobalData(name, size, align, is_string=bool(flag))
        for _ in range(nitems):
            if pos >= end:
                raise TruncatedStreamError("data ends before initializer tag")
            tag = data[pos]
            offset = data[pos + 1] if pos + 1 < end else 0x80
            if offset < 0x80:
                pos += 2
            else:
                offset, pos = read_uvarint(data, pos + 1)
            if tag == 0:
                isize = data[pos] if pos < end else 0x80
                if isize < 0x80:
                    pos += 1
                else:
                    isize, pos = read_uvarint(data, pos)
                z = data[pos] if pos < end else 0x80
                if z < 0x80:
                    pos += 1
                else:
                    z, pos = read_uvarint(data, pos)
                g.items.append(ScalarInit(offset, isize, unzigzag(z)))
            elif tag == 1:
                raw, pos = take_bytes(data, pos, 8, "double initializer")
                g.items.append(ScalarInit(offset, 8, DOUBLE.unpack(raw)[0]))
            elif tag == 2:
                symbol, pos = read_name(data, pos, "pointer symbol")
                g.items.append(PtrInit(offset, symbol))
            else:
                raise CorruptStreamError(f"unknown initializer tag {tag}")
        globals_.append(g)
    return globals_, pos
