"""Bit-level I/O primitives used by every entropy coder in this package.

The paper's pipelines (Huffman-coded MTF indices, the deflate-like final
stage, and the arithmetic-coding design point) all need to read and write
individual bits.  Bits are packed MSB-first within each byte, which makes
canonical Huffman codes decode by simple left-to-right accumulation.

Both endpoints are *word-buffered*: bits accumulate in a single Python
int and move to/from the byte buffer in whole-byte chunks
(``int.to_bytes``/``int.from_bytes``), so the per-call cost is a couple
of shifts instead of a Python-level loop per bit.  Aligned bulk
``write_bytes``/``read_bytes`` degenerate to plain slicing; unaligned
bulk transfers go through one big-int shift rather than an 8×-per-byte
bit loop.  The bit-for-bit output format is unchanged.

The module also provides the byte-level literal codec both container
formats (wire and BRISC) write with: LEB128 lengths and counts, zigzag
for signed values, length-prefixed UTF-8 names, the one double encoding
(:data:`DOUBLE`), and :func:`literal_key`, the rule for when two
literals are the same.
"""

from __future__ import annotations

import struct
from typing import Tuple, Union

from ..errors import (
    CorruptStreamError, DEFAULT_LIMITS, ResourceLimits, TruncatedStreamError,
)

__all__ = [
    "BitWriter",
    "BitReader",
    "write_uvarint",
    "read_uvarint",
    "take_bytes",
    "uvarint",
    "zigzag",
    "unzigzag",
    "write_name",
    "read_name",
    "read_byte",
    "DOUBLE",
    "literal_key",
]

#: Flush the writer's accumulator once it holds this many bits.  Small
#: enough that every shift stays a few machine words; large enough that
#: ``to_bytes`` amortizes over dozens of calls.
_FLUSH_BITS = 256


class BitWriter:
    """Accumulates bits MSB-first and renders them as ``bytes``.

    >>> w = BitWriter()
    >>> w.write_bits(0b101, 3)
    >>> w.write_bit(1)
    >>> w.getvalue()[0] == 0b1011_0000
    True
    """

    def __init__(self) -> None:
        self._buf = bytearray()  # flushed whole bytes
        self._acc = 0  # bit accumulator, MSB side filled first
        self._nbits = 0  # number of valid bits in _acc

    def _flush(self) -> None:
        """Move every complete byte from the accumulator to the buffer."""
        rem = self._nbits & 7
        nbytes = self._nbits >> 3
        if nbytes:
            self._buf += (self._acc >> rem).to_bytes(nbytes, "big")
            self._acc &= (1 << rem) - 1
            self._nbits = rem

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self._acc = (self._acc << 1) | (bit & 1)
        self._nbits += 1
        if self._nbits >= _FLUSH_BITS:
            self._flush()

    def write_bits(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` bits of ``value``, most significant first."""
        # A negative value stays negative under >>, so one shift test
        # catches both out-of-range cases; nbits <= 0 guards the shift.
        if nbits <= 0 or value >> nbits:
            # Slow path; ordering preserves the original error behaviour.
            if nbits < 0:
                raise ValueError("nbits must be non-negative")
            if nbits == 0:
                return
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        total = self._nbits + nbits
        self._nbits = total
        if total >= _FLUSH_BITS:
            self._flush()

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes (a plain slice append when bit-aligned)."""
        if self._nbits & 7 == 0:
            self._flush()
            self._buf += data
        else:
            nbits = len(data) * 8
            self._acc = (self._acc << nbits) | int.from_bytes(data, "big")
            self._nbits += nbits
            self._flush()

    def align(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        rem = self._nbits & 7
        if rem:
            self._acc <<= 8 - rem
            self._nbits += 8 - rem
        self._flush()

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self._buf) * 8 + self._nbits

    def getvalue(self) -> bytes:
        """Return everything written, zero-padding the final partial byte."""
        self._flush()
        out = bytes(self._buf)
        rem = self._nbits  # < 8 after a flush
        if rem:
            out += bytes([(self._acc << (8 - rem)) & 0xFF])
        return out


class BitReader:
    """Reads bits MSB-first from a ``bytes`` buffer.

    Reading past the end raises
    :class:`~repro.errors.TruncatedStreamError` (an ``EOFError`` subclass);
    entropy decoders treat that as a corrupt-stream condition rather than
    silently yielding zeros.

    Invariant: the low ``_nbits`` bits of ``_acc`` are the next unread
    bits (MSB first); bits above that are stale garbage from already
    consumed reads, masked off lazily — on refill and on extraction —
    rather than after every read.  ``_pos`` is the index of the next byte
    to load.  The Huffman batch decoder borrows this state directly.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._len = len(data)
        self._pos = 0  # next byte to load into the accumulator
        self._acc = 0
        self._nbits = 0

    def _fill(self, need: int) -> None:
        """Load bytes until at least ``need`` bits are buffered.

        Refills greedily (up to 32 bytes at a time) so a run of small
        reads touches the byte buffer once every ~30 calls instead of on
        nearly every call; the extra buffered bits are invisible to
        callers because every cursor query derives from ``_pos``/``_nbits``.
        """
        take = (need - self._nbits + 7) >> 3
        if take < 32:
            take = 32
        chunk = self._data[self._pos : self._pos + take]
        got = len(chunk)
        if got:
            self._acc = (((self._acc & ((1 << self._nbits) - 1)) << (got * 8))
                         | int.from_bytes(chunk, "big"))
            self._nbits += got * 8
            self._pos += got
        if self._nbits < need:
            raise TruncatedStreamError("bit stream exhausted")

    def read_bit(self) -> int:
        """Read and return a single bit."""
        nbits = self._nbits
        if nbits == 0:
            pos = self._pos
            chunk = self._data[pos : pos + 32]
            if not chunk:
                raise TruncatedStreamError("bit stream exhausted")
            nbits = len(chunk) * 8
            self._acc = int.from_bytes(chunk, "big")
            self._pos = pos + len(chunk)
        nbits -= 1
        self._nbits = nbits
        return (self._acc >> nbits) & 1

    def read_bits(self, nbits: int) -> int:
        """Read ``nbits`` bits, returning them as an unsigned integer."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        have = self._nbits - nbits
        if have < 0:
            self._fill(nbits)
            have = self._nbits - nbits
        self._nbits = have
        return (self._acc >> have) & ((1 << nbits) - 1)

    def align(self) -> None:
        """Discard bits up to the next byte boundary."""
        # bits_consumed ≡ -_nbits (mod 8), so the partial-byte remainder
        # sitting in the accumulator is exactly _nbits % 8 bits; dropping
        # them just lowers _nbits (discarded bits become stale garbage).
        self._nbits -= self._nbits & 7

    def read_bytes(self, n: int) -> bytes:
        """Read ``n`` whole bytes — a slice when byte-aligned, one bulk
        big-int shift otherwise (never a per-bit loop)."""
        if n < 0:
            raise CorruptStreamError(f"negative byte count {n}")
        consumed = self._pos * 8 - self._nbits
        end_bit = consumed + n * 8
        if end_bit > self._len * 8:
            raise TruncatedStreamError("bit stream exhausted")
        rem = consumed & 7
        if rem == 0:
            start = consumed >> 3
            out = self._data[start : start + n]
            self._pos = start + n
            self._acc = 0
            self._nbits = 0
            return out
        first = consumed >> 3
        last = (end_bit + 7) >> 3
        value = int.from_bytes(self._data[first:last], "big")
        value >>= last * 8 - end_bit
        out = (value & ((1 << (n * 8)) - 1)).to_bytes(n, "big")
        # Re-seat the accumulator on the partial byte the read ends in.
        self._pos = (end_bit >> 3) + 1
        self._nbits = 8 - (end_bit & 7)
        self._acc = self._data[end_bit >> 3] & ((1 << self._nbits) - 1)
        return out

    @property
    def bits_consumed(self) -> int:
        """Number of bits consumed so far."""
        return self._pos * 8 - self._nbits

    @property
    def bits_remaining(self) -> int:
        """Unread bits left in the buffer — the cheapest upper bound on how
        many symbols a count field could legitimately promise."""
        return (self._len - self._pos) * 8 + self._nbits

    def at_eof(self) -> bool:
        """True when no unread bits remain."""
        return self._nbits == 0 and self._pos >= self._len


def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` to ``out`` in LEB128 (7 bits per byte, little-endian)."""
    if value < 0:
        raise ValueError("uvarint requires a non-negative value")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(data: bytes, pos: int) -> "tuple[int, int]":
    """Decode a LEB128 integer from ``data`` at ``pos``.

    Returns ``(value, new_pos)``.
    """
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise TruncatedStreamError("truncated uvarint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise CorruptStreamError("uvarint too long")


def take_bytes(data: bytes, pos: int, n: int, what: str = "field") -> "tuple[bytes, int]":
    """Slice ``n`` bytes at ``pos``, *then* check the slice is complete.

    Python slicing silently truncates past the end of a buffer; every
    length-prefixed read in the decoders goes through this helper so a
    short buffer raises :class:`~repro.errors.TruncatedStreamError` instead
    of yielding a quietly shortened value.  Returns ``(slice, new_pos)``.
    """
    if n < 0:
        raise CorruptStreamError(f"negative length {n} for {what}")
    end = pos + n
    chunk = data[pos:end]
    if len(chunk) != n:
        raise TruncatedStreamError(
            f"{what} needs {n} bytes at offset {pos}, "
            f"only {len(data) - pos} remain")
    return chunk, end


def uvarint(value: int) -> bytes:
    """Return the LEB128 encoding of ``value`` as ``bytes``."""
    out = bytearray()
    write_uvarint(out, value)
    return bytes(out)


def zigzag(value: int) -> int:
    """Map signed to unsigned so small-magnitude values stay small."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return -(value >> 1) - 1 if value & 1 else value >> 1


def write_name(out: bytearray, name: str) -> None:
    """Append ``name`` as its UTF-8 byte length (a uvarint), then the bytes."""
    raw = name.encode("utf-8")
    write_uvarint(out, len(raw))
    out += raw


def read_name(data: bytes, pos: int, what: str,
              limits: ResourceLimits = DEFAULT_LIMITS) -> Tuple[str, int]:
    """Invert :func:`write_name`, bounding the length by
    ``limits.max_name_bytes`` before slicing.  Returns ``(name, new_pos)``."""
    n, pos = read_uvarint(data, pos)
    limits.check(f"{what} length", n, limits.max_name_bytes)
    raw, pos = take_bytes(data, pos, n, what)
    return raw.decode("utf-8"), pos


def read_byte(data: bytes, pos: int, what: str) -> Tuple[int, int]:
    """The byte at ``pos`` and ``pos + 1``; typed error past the end."""
    if pos >= len(data):
        raise TruncatedStreamError(f"data ends before {what}")
    return data[pos], pos + 1


#: IEEE-754 binary64, little-endian: how both formats store a double
#: (wire float literals and initializers, BRISC double operands).
DOUBLE = struct.Struct("<d")


def literal_key(value: Union[int, float, str]) -> Union[int, bytes, str]:
    """A literal's identity: two literals are the same exactly when their
    keys are equal, that is, when they encode to the same bytes.

    A double is keyed by its :data:`DOUBLE` bytes, because ``==``
    equates ``-0.0`` with ``0.0`` (and never equates a NaN with
    itself); an int or a name is its own key.  Every table or comparison
    that decides whether two literals, instructions or IR functions are
    the same goes through this key.
    """
    return DOUBLE.pack(value) if value.__class__ is float else value
