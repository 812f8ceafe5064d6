"""Multi-stream container used by the wire format.

The paper's central trick is to "divide the stream of code into several
smaller streams, one holding the operators and one holding the literal
operands for each operator", compressing each in isolation so the LZ stage
sees homogeneous data.  This container frames a set of named byte streams
and optionally runs each through the deflate-like compressor.

Layout (all integers LEB128):

    count
    repeat count times:
        name_len, name (utf-8), flags, [crc32 (4 bytes LE, when flag 2)],
        payload_len, payload

Flag 1 marks a deflate-compressed payload; flag 2 marks a CRC32 of the
*stored* payload bytes, verified before any decompression, so a flipped
bit in transit is reported as :class:`~repro.errors.CorruptStreamError`
up front rather than surfacing mid-Huffman-rebuild.  Flag 4 marked an
arithmetic-coded payload, which no encoder writes now, so a reader
meeting it raises :class:`~repro.errors.UnsupportedFormatError`.  Readers
accept both checksummed and legacy (CRC-less) entries.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, Mapping, Optional, Tuple

from ..errors import (
    CorruptStreamError, DEFAULT_LIMITS, ResourceLimits, UnsupportedFormatError,
    decode_guard,
)
from . import deflate
from .bitio import (
    read_byte, read_name, read_uvarint, take_bytes, write_name, write_uvarint,
)

__all__ = ["pack_streams", "unpack_streams", "stored_streams"]

_FLAG_DEFLATE = 1
_FLAG_CRC32 = 2


def pack_streams(
    streams: Mapping[str, bytes],
    compress: bool = True,
    checksums: bool = False,
) -> bytes:
    """Serialize named byte streams, compressing each in isolation.

    When ``compress`` is true each stream is deflated unless the
    compressed form would be larger (tiny streams), in which case it is
    stored raw — the flag byte records which happened.  A payload no
    longer than :data:`deflate.MIN_BLOCK_BYTES` is stored raw without
    trying deflate, which could not make it shorter.  ``checksums``
    appends a CRC32 per stream (4 bytes each) so the receiver can detect
    corruption before decoding.
    """
    out = bytearray()
    write_uvarint(out, len(streams))
    for name in sorted(streams):
        payload = streams[name]
        flags = 0
        if compress and len(payload) > deflate.MIN_BLOCK_BYTES:
            packed = deflate.compress(payload)
            if len(packed) < len(payload):
                payload = packed
                flags = _FLAG_DEFLATE
        if checksums:
            flags |= _FLAG_CRC32
        write_name(out, name)
        out.append(flags)
        if checksums:
            out.extend(zlib.crc32(payload).to_bytes(4, "little"))
        write_uvarint(out, len(payload))
        out.extend(payload)
    return bytes(out)


def _entries(
    blob: bytes, limits: ResourceLimits
) -> Iterator[Tuple[str, int, bytes]]:
    """Each entry of the container as ``(name, flags, stored payload)``,
    in order, with its framing, counts and checksum validated as it is
    reached; nothing is decoded."""
    count, pos = read_uvarint(blob, 0)
    limits.check("stream count", count, limits.max_streams)
    for _ in range(count):
        name, pos = read_name(blob, pos, "stream name", limits)
        flags, pos = read_byte(blob, pos, "stream flags")
        if flags & 4:
            raise UnsupportedFormatError(
                f"stream {name!r} is arithmetic-coded (flag 4), a codec "
                "this reader does not decode")
        if flags & ~(_FLAG_DEFLATE | _FLAG_CRC32):
            raise CorruptStreamError(
                f"unknown stream flags {flags:#x} for {name!r}")
        crc = None
        if flags & _FLAG_CRC32:
            crc_raw, pos = take_bytes(blob, pos, 4, "stream checksum")
            crc = int.from_bytes(crc_raw, "little")
        payload_len, pos = read_uvarint(blob, pos)
        limits.check("stream payload", payload_len,
                     limits.max_decoded_bytes)
        payload, pos = take_bytes(blob, pos, payload_len,
                                  f"stream {name!r} payload")
        if crc is not None and zlib.crc32(payload) != crc:
            raise CorruptStreamError(
                f"stream {name!r} failed its CRC32 check")
        yield name, flags, payload


def unpack_streams(
    blob: bytes, limits: Optional[ResourceLimits] = None
) -> Dict[str, bytes]:
    """Invert :func:`pack_streams`, validating every count and checksum.

    Raises a typed :class:`~repro.errors.DecodeError` subclass on any
    malformed input; ``limits`` bounds what the container may allocate.
    """
    limits = limits or DEFAULT_LIMITS
    with decode_guard("stream container"):
        streams: Dict[str, bytes] = {}
        decoded_total = 0
        for name, flags, payload in _entries(blob, limits):
            if flags & _FLAG_DEFLATE:
                payload = deflate.decompress(payload, limits=limits)
            decoded_total += len(payload)
            limits.check("decoded container bytes", decoded_total,
                         limits.max_decoded_bytes)
            if name in streams:
                raise CorruptStreamError(f"duplicate stream {name!r}")
            streams[name] = payload
        return streams


def stored_streams(
    blob: bytes, limits: Optional[ResourceLimits] = None
) -> Dict[str, bytes]:
    """Each stream's payload as the container stores it (compressed or
    raw), validated like :func:`unpack_streams` but not decoded.

    Framing these with ``pack_streams(..., compress=False)`` and the same
    ``checksums`` gives the container's size, compressing nothing again.
    """
    limits = limits or DEFAULT_LIMITS
    with decode_guard("stream container"):
        stored: Dict[str, bytes] = {}
        for name, _, payload in _entries(blob, limits):
            if name in stored:
                raise CorruptStreamError(f"duplicate stream {name!r}")
            stored[name] = payload
        return stored
