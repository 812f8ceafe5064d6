"""The seekable (v3) container layer shared by WIR3 and BRI3.

The paper's motivating scenario is demand-paging compressed code: a
client should be able to page in *one function* without downloading (or
decompressing) the whole unit.  Both v3 containers therefore group
functions into *chunks* — independently decodable, CRC-framed byte
extents — behind a block index that maps every function to the chunk
holding it and every chunk to its (offset, length, CRC32) in the blob.

Layout, for either magic::

    magic | crc32(header) u32 LE | uvarint len | stored header | chunks

The header is the format's function table followed by the chunk table
(per chunk: offset relative to the chunk area, stored length, CRC32).
The CRC covers the raw header; WIR3 stores it deflated, BRI3 raw.

Every decision the two formats share lives here:

* :func:`pack_chunks` — which functions share a chunk;
* :func:`write_container` and :func:`read_header` — the framing above;
* :func:`read_index` — the chunk table parsed into a
  :class:`ContainerIndex`: per-function spans in the *decoded* address
  space, per-chunk extents in the *stored* blob, and the range
  arithmetic a byte-range server needs;
* :func:`chunk_payload` — one chunk's bytes, extent- and CRC-checked;
* :func:`read_span` — decoded-address-space bytes from the covering
  chunks only;
* :func:`assemble_sparse` — rebuild a decodable sparse blob from fetched
  (offset, bytes) segments; untouched regions stay zeroed and are never
  read by ``decode_function``/``decode_range``.

The formats (:mod:`repro.wire.format`, :mod:`repro.brisc.encode`) keep
only their function tables and chunk payloads.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..compress.bitio import read_uvarint, take_bytes, write_uvarint
from ..errors import CorruptStreamError, ResourceLimits, TruncatedStreamError

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "ChunkRecord",
    "ContainerIndex",
    "FunctionRecord",
    "assemble_sparse",
    "chunk_payload",
    "pack_chunks",
    "read_header",
    "read_index",
    "read_span",
    "write_container",
]

#: Default chunk-size cap.  Half a (4 KB) page: small enough that a
#: one-function fetch of a typical unit moves a fraction of the blob,
#: large enough that per-chunk framing overhead stays in the noise.
DEFAULT_CHUNK_BYTES = 2048


def pack_chunks(sizes: Sequence[int],
                target_bytes: int = DEFAULT_CHUNK_BYTES) -> List[List[int]]:
    """Group functions ``0 .. len(sizes) - 1`` into size-capped chunks.

    Greedy in module order: functions defined together tend to be called
    together, so module order is a serviceable locality heuristic.  A
    function larger than the cap gets a chunk of its own; the cap is a
    target, not a hard bound, because functions are atomic.

    Every function lands in exactly one chunk, and the members of each
    chunk ascend in module order by construction.  The encoders rely on
    that order: they write a chunk's payload member by member, and the
    decoders hand the payload back to the members the index lists, in
    index order.
    """
    if target_bytes < 1:
        raise ValueError(f"target_bytes must be >= 1, got {target_bytes}")
    chunks: List[List[int]] = []
    used = 0
    for index, size in enumerate(sizes):
        if chunks and used + size <= target_bytes:
            chunks[-1].append(index)
            used += size
        else:
            chunks.append([index])
            used = size
    return chunks


# ---------------------------------------------------------------------------
# The parsed block index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkRecord:
    """One chunk's extent in the stored blob."""

    index: int
    offset: int          # absolute byte offset of the chunk in the blob
    length: int          # stored bytes
    crc32: int
    members: Tuple[int, ...] = ()   # function indices, ascending


@dataclass(frozen=True)
class FunctionRecord:
    """One function's location: which chunk stores it, and where its
    bytes land in the *decoded* address space (concatenated function
    images in original module order)."""

    index: int
    name: str
    chunk: int
    span_start: int
    span_length: int


@dataclass
class ContainerIndex:
    """The block index of a seekable (v3) container.

    ``header_bytes`` is the prefix (magic, CRCs, header) every partial
    read needs; ``ranges_for_*`` return the minimal sorted list of
    ``(offset, length)`` byte ranges a client must fetch to decode the
    request.  ``span_bytes`` is the total decoded address space.
    """

    kind: str                       # "wire" | "brisc"
    version: int
    total_bytes: int
    header_bytes: int
    functions: List[FunctionRecord] = field(default_factory=list)
    chunks: List[ChunkRecord] = field(default_factory=list)

    @property
    def span_bytes(self) -> int:
        return sum(f.span_length for f in self.functions)

    def function(self, name: str) -> FunctionRecord:
        for record in self.functions:
            if record.name == name:
                return record
        raise CorruptStreamError(
            f"container has no function {name!r} "
            f"(have: {[f.name for f in self.functions]})")

    def chunk_of(self, name: str) -> ChunkRecord:
        return self.chunks[self.function(name).chunk]

    def functions_in_span(self, start: int,
                          length: int) -> List[FunctionRecord]:
        """Functions whose decoded span intersects [start, start+length)."""
        if start < 0 or length < 0:
            raise CorruptStreamError(
                f"invalid span request start={start} length={length}")
        end = start + length
        return [f for f in self.functions
                if f.span_length and f.span_start < end
                and start < f.span_start + f.span_length]

    def _ranges(self, chunk_ids: Iterable[int]) -> List[Tuple[int, int]]:
        ranges = [(0, self.header_bytes)]
        for cid in sorted(set(chunk_ids)):
            chunk = self.chunks[cid]
            ranges.append((chunk.offset, chunk.length))
        return _coalesce(ranges)

    def ranges_for_function(self, name: str) -> List[Tuple[int, int]]:
        return self._ranges([self.function(name).chunk])

    def ranges_for_span(self, start: int, length: int) -> List[Tuple[int, int]]:
        return self._ranges(
            f.chunk for f in self.functions_in_span(start, length))


def _coalesce(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge overlapping/adjacent (offset, length) ranges."""
    merged: List[Tuple[int, int]] = []
    for offset, length in sorted(ranges):
        if merged and offset <= merged[-1][0] + merged[-1][1]:
            last_off, last_len = merged[-1]
            merged[-1] = (last_off,
                          max(last_len, offset + length - last_off))
        else:
            merged.append((offset, length))
    return merged


# ---------------------------------------------------------------------------
# Framing: writing and reading the header, the chunk table and the chunks
# ---------------------------------------------------------------------------


def write_container(magic: bytes, header: bytes, chunks: Sequence[bytes],
                    pack: Optional[Callable[[bytes], bytes]] = None) -> bytes:
    """Frame a v3 container around the format's ``header`` (its function
    table) and its chunk payloads.  The chunk table is appended to the
    header here; ``pack`` transforms the header for storage (default:
    stored raw), and the CRC covers the raw header either way."""
    table = bytearray(header)
    write_uvarint(table, len(chunks))
    offset = 0
    for chunk in chunks:
        write_uvarint(table, offset)
        write_uvarint(table, len(chunk))
        table.extend(zlib.crc32(chunk).to_bytes(4, "little"))
        offset += len(chunk)
    raw = bytes(table)
    stored = pack(raw) if pack else raw
    prefix = bytearray(magic)
    prefix.extend(zlib.crc32(raw).to_bytes(4, "little"))
    write_uvarint(prefix, len(stored))
    return bytes(prefix) + stored + b"".join(chunks)


def read_header(
    blob: bytes, limits: ResourceLimits, what: str,
    unpack: Optional[Callable[[bytes, ResourceLimits], bytes]] = None,
) -> Tuple[bytes, int]:
    """Verify the framing after the 4-byte magic; returns (raw header,
    header_bytes).  ``header_bytes`` is the chunk area's base offset —
    the prefix every partial read must hold.  ``unpack`` inverts the
    writer's ``pack``; ``what`` names the format in error messages."""
    stored_crc, pos = take_bytes(blob, 4, 4, f"{what} header CRC")
    hlen, pos = read_uvarint(blob, pos)
    limits.check(f"{what} header size", hlen, limits.max_decoded_bytes)
    stored, pos = take_bytes(blob, pos, hlen, f"{what} container header")
    header = unpack(stored, limits) if unpack else stored
    if zlib.crc32(header) != int.from_bytes(stored_crc, "little"):
        raise CorruptStreamError(f"{what} container header CRC mismatch")
    return header, pos


def read_index(kind: str, header: bytes, pos: int, base: int,
               limits: ResourceLimits,
               functions: Sequence[Tuple[str, int, int]]) -> ContainerIndex:
    """Parse the chunk table that closes ``header`` at ``pos`` into the
    block index.  ``functions`` lists each function's (name, chunk id,
    span length) in module order, as the format's function table holds
    them; ``base`` is the chunk area's offset in the blob."""
    nchunks, pos = read_uvarint(header, pos)
    limits.check("chunk count", nchunks, limits.max_streams)
    if nchunks * 6 > len(header) - pos:  # each chunk costs >= 6 bytes
        raise TruncatedStreamError(
            f"header promises {nchunks} chunks, header too short")
    extents: List[Tuple[int, int, int]] = []
    for _ in range(nchunks):
        offset, pos = read_uvarint(header, pos)
        length, pos = read_uvarint(header, pos)
        raw, pos = take_bytes(header, pos, 4, "chunk CRC")
        extents.append((offset, length, int.from_bytes(raw, "little")))
    index = ContainerIndex(
        kind=kind, version=3,
        total_bytes=base + sum(length for _, length, _ in extents),
        header_bytes=base)
    members: List[List[int]] = [[] for _ in extents]
    span = 0
    for i, (name, chunk_id, span_length) in enumerate(functions):
        if chunk_id >= nchunks:
            raise CorruptStreamError(
                f"function {name!r} references chunk {chunk_id} "
                f"of {nchunks}")
        index.functions.append(
            FunctionRecord(i, name, chunk_id, span, span_length))
        members[chunk_id].append(i)
        span += span_length
    for cid, (offset, length, crc) in enumerate(extents):
        index.chunks.append(ChunkRecord(cid, base + offset, length, crc,
                                        tuple(members[cid])))
    return index


def chunk_payload(blob: bytes, chunk: ChunkRecord) -> bytes:
    """One chunk's stored bytes, after checking its extent and CRC32."""
    end = chunk.offset + chunk.length
    if end > len(blob):
        raise TruncatedStreamError(
            f"chunk {chunk.index} extent [{chunk.offset}, {end}) beyond "
            f"the {len(blob)}-byte container")
    payload = blob[chunk.offset:end]
    if zlib.crc32(payload) != chunk.crc32:
        raise CorruptStreamError(f"chunk {chunk.index} CRC mismatch")
    return payload


def read_span(index: ContainerIndex, start: int, length: int,
              images: Callable[[ChunkRecord], Sequence[bytes]]) -> bytes:
    """Decoded-address-space bytes ``[start, start+length)``.

    ``images(chunk)`` decodes one chunk and returns its members' images
    in member order; only the chunks covering the span are decoded.
    Out-of-range spans clamp like a Python slice.
    """
    records = index.functions_in_span(start, length)
    decoded: Dict[int, bytes] = {}
    for cid in sorted({record.chunk for record in records}):
        chunk = index.chunks[cid]
        decoded.update(zip(chunk.members, images(chunk)))
    end = start + length
    out = bytearray()
    for record in records:
        image = decoded[record.index]
        if len(image) != record.span_length:
            raise CorruptStreamError(
                f"function {record.name!r} decodes to {len(image)} span "
                f"bytes, the index promises {record.span_length}")
        first = record.span_start
        out.extend(image[max(start - first, 0):end - first])
    return bytes(out)


def assemble_sparse(total_bytes: int,
                    segments: Iterable[Tuple[int, bytes]]) -> bytes:
    """Rebuild a sparse container from fetched ``(offset, bytes)`` pieces.

    Unfetched regions stay zero.  The result is decodable by
    ``decode_function``/``decode_range`` for any function whose header
    and chunk ranges were fetched — those are the only bytes the partial
    decoders touch, so the zero filler is never read.  A negative size
    or a segment outside the container raises
    :class:`~repro.errors.CorruptStreamError`.
    """
    if total_bytes < 0:
        raise CorruptStreamError(
            f"total_bytes must be >= 0, got {total_bytes}")
    blob = bytearray(total_bytes)
    for offset, data in segments:
        if offset < 0 or offset + len(data) > total_bytes:
            raise CorruptStreamError(
                f"segment [{offset}, {offset + len(data)}) outside the "
                f"{total_bytes}-byte container")
        blob[offset:offset + len(data)] = data
    return bytes(blob)
