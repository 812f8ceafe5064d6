"""The wire format: encoder and decoder.

The paper's recipe, step for step:

1. compile to trees (done upstream in :mod:`repro.ir`);
2. patternize; one stream of operator patterns, one literal stream per
   opcode+width class;
3. move-to-front code every stream in isolation (0 = novel symbol);
4. Huffman-code the MTF indices (but not the MTF tables / novel values);
5. encode the novel values in 1/2/4-byte (or string) form and deflate every
   stream in isolation (the paper's per-stream gzip).

The container is self-describing; :func:`decode_module` reconstructs the
IR module exactly (labels are normalized to dense indices first, which is
the only — purely internal — renaming).
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from ..compress import huffman
from ..compress.bitio import read_uvarint, take_bytes, write_uvarint
from ..compress.mtf import mtf_decode, mtf_encode
from ..compress.streams import pack_streams, unpack_streams
from ..container.chunking import (
    ChunkPlacement, ChunkRecord, ContainerIndex, FunctionExtent,
    FunctionRecord, GreedyPlacement, validate_placement,
)
from ..errors import (
    CorruptStreamError, DEFAULT_LIMITS, ResourceLimits,
    TruncatedStreamError, UnsupportedFormatError, decode_guard,
)
from ..ir.ops import op
from ..ir.tree import GlobalData, IRFunction, IRModule, PtrInit, ScalarInit
from .patternize import (
    Pattern, _LiteralSource, normalize_labels, patternize_tree, rebuild_tree,
    unzigzag, zigzag,
)

__all__ = [
    "container_index", "decode_function", "decode_module", "decode_range",
    "encode_module", "encode_module_v3", "function_image", "stream_breakdown",
    "wire_size",
]

# The fourth magic byte is the container version: "WIR1" blobs (the seed
# format) carry no checksums and remain readable; "WIR2" blobs checksum
# every stream (CRC32, verified before decode); "WIR3" blobs are the
# seekable chunked layout (header + block index + per-chunk CRC32) decoded
# by the v3 section below.  Anything else is rejected with
# UnsupportedFormatError.
_MAGIC_PREFIX = b"WIR"
_MAGIC_V1 = b"WIR1"
_MAGIC = b"WIR2"
_MAGIC_V3 = b"WIR3"


# ---------------------------------------------------------------------------
# Novel-value serialization (the "MTF tables", kept out of the Huffman pass)
# ---------------------------------------------------------------------------


def _pack_int_novels(values: List[int]) -> bytes:
    out = bytearray()
    for v in values:
        write_uvarint(out, zigzag(v))
    return bytes(out)


def _unpack_int_novels(data: bytes, count: int) -> List[int]:
    # Each novel costs at least one byte, so the count cannot exceed the
    # bytes available — reject forged counts before allocating.
    if count > len(data):
        raise TruncatedStreamError(
            f"novel stream promises {count} ints, only {len(data)} bytes")
    values: List[int] = []
    pos = 0
    for _ in range(count):
        z, pos = read_uvarint(data, pos)
        values.append(unzigzag(z))
    return values


def _pack_str_novels(values: List[str]) -> bytes:
    out = bytearray()
    for v in values:
        raw = v.encode("utf-8")
        write_uvarint(out, len(raw))
        out.extend(raw)
    return bytes(out)


def _unpack_str_novels(data: bytes, count: int) -> List[str]:
    if count > len(data):
        raise TruncatedStreamError(
            f"novel stream promises {count} strings, only {len(data)} bytes")
    values: List[str] = []
    pos = 0
    for _ in range(count):
        n, pos = read_uvarint(data, pos)
        DEFAULT_LIMITS.check("string novel length", n,
                             DEFAULT_LIMITS.max_name_bytes)
        raw, pos = take_bytes(data, pos, n, "string novel")
        values.append(raw.decode("utf-8"))
    return values


def _pack_float_novels(values: List[float]) -> bytes:
    return struct.pack("<%dd" % len(values), *values)


def _unpack_float_novels(data: bytes, count: int) -> List[float]:
    if count * 8 > len(data):
        raise TruncatedStreamError(
            f"novel stream promises {count} doubles, only {len(data)} bytes")
    return list(struct.unpack_from("<%dd" % count, data))


def _pack_pattern_novels(patterns: List[Pattern]) -> bytes:
    """Each pattern: uvarint length, then one byte per operator.

    Opcodes fit in 7 bits; the common width class 0 (8-bit literals and
    literal-free operators) uses the bare opcode byte, wider literals set
    the high bit and append a width byte.
    """
    out = bytearray()
    for pattern in patterns:
        write_uvarint(out, len(pattern))
        for name, width in pattern:
            opcode = op(name).opcode
            if width == 0:
                out.append(opcode)
            else:
                out.append(0x80 | opcode)
                out.append(width)
    return bytes(out)


def _unpack_pattern_novels(data: bytes, count: int) -> List[Pattern]:
    from ..ir.ops import OPS

    if count > len(data):
        raise TruncatedStreamError(
            f"novel stream promises {count} patterns, only {len(data)} bytes")
    by_opcode = {o.opcode: o.name for o in OPS.values()}
    patterns: List[Pattern] = []
    pos = 0
    for _ in range(count):
        n, pos = read_uvarint(data, pos)
        if n > len(data) - pos:
            raise TruncatedStreamError(
                f"pattern promises {n} operators, stream too short")
        syms = []
        for _ in range(n):
            if pos >= len(data):
                raise TruncatedStreamError("truncated pattern novel")
            byte = data[pos]
            pos += 1
            opcode = byte & 0x7F
            name = by_opcode.get(opcode)
            if name is None:
                raise CorruptStreamError(f"unknown opcode {opcode} in pattern")
            if byte & 0x80:
                if pos >= len(data):
                    raise TruncatedStreamError("pattern missing width byte")
                syms.append((name, data[pos]))
                pos += 1
            else:
                syms.append((name, 0))
        patterns.append(tuple(syms))
    return patterns


# ---------------------------------------------------------------------------
# MTF + Huffman per stream
# ---------------------------------------------------------------------------


def _encode_mtf_stream(values: List) -> Tuple[bytes, List]:
    """MTF+Huffman a stream; returns (index_bytes, novel_values)."""
    indices, novels = mtf_encode(values)
    alphabet = (max(indices) + 1) if indices else 1
    packed = huffman.encode_symbols(indices, alphabet)
    return packed, novels


def _decode_mtf_stream(
    index_bytes: bytes, novels: List, limits: Optional[ResourceLimits] = None
) -> List:
    indices = huffman.decode_symbols(index_bytes, limits)
    return mtf_decode(indices, novels)


# ---------------------------------------------------------------------------
# Meta stream (globals + function headers; "code segments" stay elsewhere)
# ---------------------------------------------------------------------------


def _pack_globals_meta(out: bytearray, globals_: List[GlobalData]) -> None:
    write_uvarint(out, len(globals_))
    for g in globals_:
        raw = g.name.encode("utf-8")
        write_uvarint(out, len(raw))
        out.extend(raw)
        write_uvarint(out, g.size)
        write_uvarint(out, g.align)
        out.append(1 if g.is_string else 0)
        write_uvarint(out, len(g.items))
        for item in g.items:
            if isinstance(item, ScalarInit):
                if isinstance(item.value, float) or item.size == 8:
                    out.append(1)
                    write_uvarint(out, item.offset)
                    out.extend(struct.pack("<d", float(item.value)))
                else:
                    out.append(0)
                    write_uvarint(out, item.offset)
                    write_uvarint(out, item.size)
                    write_uvarint(out, zigzag(int(item.value)))
            else:
                out.append(2)
                write_uvarint(out, item.offset)
                raw = item.symbol.encode("utf-8")
                write_uvarint(out, len(raw))
                out.extend(raw)


def _pack_fn_header(out: bytearray, fn: IRFunction) -> None:
    raw = fn.name.encode("utf-8")
    write_uvarint(out, len(raw))
    out.extend(raw)
    write_uvarint(out, fn.frame_size)
    out.append(ord(fn.ret_suffix))
    write_uvarint(out, len(fn.param_sizes))
    for size in fn.param_sizes:
        write_uvarint(out, size)


def _pack_meta(module: IRModule, tree_counts: List[int]) -> bytes:
    out = bytearray()
    name_raw = module.name.encode("utf-8")
    write_uvarint(out, len(name_raw))
    out.extend(name_raw)
    _pack_globals_meta(out, module.globals)
    write_uvarint(out, len(module.functions))
    for fn, count in zip(module.functions, tree_counts):
        _pack_fn_header(out, fn)
        write_uvarint(out, count)
    return bytes(out)


def _read_name(data: bytes, pos: int, what: str) -> Tuple[str, int]:
    n, pos = read_uvarint(data, pos)
    DEFAULT_LIMITS.check(f"{what} length", n, DEFAULT_LIMITS.max_name_bytes)
    raw, pos = take_bytes(data, pos, n, what)
    return raw.decode("utf-8"), pos


def _read_byte(data: bytes, pos: int, what: str) -> Tuple[int, int]:
    if pos >= len(data):
        raise TruncatedStreamError(f"meta stream ends before {what}")
    return data[pos], pos + 1


def _unpack_globals_meta(data: bytes, pos: int) -> Tuple[List[GlobalData], int]:
    nglobals, pos = read_uvarint(data, pos)
    if nglobals > len(data) - pos:  # every global costs several bytes
        raise TruncatedStreamError(
            f"meta promises {nglobals} globals, stream too short")
    globals_: List[GlobalData] = []
    for _ in range(nglobals):
        name, pos = _read_name(data, pos, "global name")
        size, pos = read_uvarint(data, pos)
        align, pos = read_uvarint(data, pos)
        flag, pos = _read_byte(data, pos, "global flags")
        is_string = bool(flag)
        nitems, pos = read_uvarint(data, pos)
        if nitems > len(data) - pos:
            raise TruncatedStreamError(
                f"global {name!r} promises {nitems} items, stream too short")
        g = GlobalData(name, size, align, is_string=is_string)
        for _ in range(nitems):
            tag, pos = _read_byte(data, pos, "initializer tag")
            offset, pos = read_uvarint(data, pos)
            if tag == 0:
                isize, pos = read_uvarint(data, pos)
                z, pos = read_uvarint(data, pos)
                g.items.append(ScalarInit(offset, isize, unzigzag(z)))
            elif tag == 1:
                raw, pos = take_bytes(data, pos, 8, "double initializer")
                g.items.append(ScalarInit(offset, 8,
                                          struct.unpack("<d", raw)[0]))
            elif tag == 2:
                symbol, pos = _read_name(data, pos, "pointer symbol")
                g.items.append(PtrInit(offset, symbol))
            else:
                raise CorruptStreamError(f"unknown initializer tag {tag}")
        globals_.append(g)
    return globals_, pos


def _read_fn_header(data: bytes, pos: int) -> Tuple[IRFunction, int]:
    name, pos = _read_name(data, pos, "function name")
    frame_size, pos = read_uvarint(data, pos)
    suffix_byte, pos = _read_byte(data, pos, "return suffix")
    ret_suffix = chr(suffix_byte)
    nparams, pos = read_uvarint(data, pos)
    if nparams > len(data) - pos:
        raise TruncatedStreamError(
            f"function {name!r} promises {nparams} params, "
            "stream too short")
    params = []
    for _ in range(nparams):
        size, pos = read_uvarint(data, pos)
        params.append(size)
    return IRFunction(name, [], frame_size, params, ret_suffix), pos


def _unpack_meta(
    data: bytes, limits: Optional[ResourceLimits] = None
) -> Tuple[IRModule, List[int]]:
    limits = limits or DEFAULT_LIMITS
    name, pos = _read_name(data, 0, "module name")
    module = IRModule(name)
    module.globals, pos = _unpack_globals_meta(data, pos)
    nfuncs, pos = read_uvarint(data, pos)
    limits.check("function count", nfuncs, limits.max_functions)
    if nfuncs > len(data) - pos:
        raise TruncatedStreamError(
            f"meta promises {nfuncs} functions, stream too short")
    tree_counts: List[int] = []
    for _ in range(nfuncs):
        fn, pos = _read_fn_header(data, pos)
        count, pos = read_uvarint(data, pos)
        module.functions.append(fn)
        tree_counts.append(count)
    return module, tree_counts


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def _collect_streams(module: IRModule) -> Tuple[
    List[Pattern], Dict[str, List], List[int], IRModule
]:
    """Patternize the whole module.

    Returns (pattern stream, literal streams, per-function tree counts,
    label-normalized module).
    """
    normalized = IRModule(module.name, list(module.globals), [])
    pattern_stream: List[Pattern] = []
    literal_streams: Dict[str, List] = {}
    tree_counts: List[int] = []
    for fn in module.functions:
        fn = normalize_labels(fn)
        normalized.functions.append(fn)
        tree_counts.append(len(fn.forest))
        for tree in fn.forest:
            pattern, literals = patternize_tree(tree)
            pattern_stream.append(pattern)
            for key, value in literals:
                literal_streams.setdefault(key, []).append(value)
    return pattern_stream, literal_streams, tree_counts, normalized


def _stream_kind(key: str) -> str:
    """Literal kind of a stream key: int, label, sym, or float."""
    base = key.rstrip("0123456789")
    kind = op(base).literal if base in _op_names() else "int"
    return kind


def _op_names():
    from ..ir.ops import OPS

    return OPS


def _pack_code_streams(
    pattern_stream: List[Pattern], literal_streams: Dict[str, List]
) -> Dict[str, bytes]:
    """Serialize the pattern + literal streams (everything but "meta")."""
    streams: Dict[str, bytes] = {}
    idx_bytes, novel_patterns = _encode_mtf_stream(pattern_stream)
    streams["patterns.idx"] = idx_bytes
    novel_blob = bytearray()
    write_uvarint(novel_blob, len(novel_patterns))
    novel_blob.extend(_pack_pattern_novels(novel_patterns))
    streams["patterns.new"] = bytes(novel_blob)

    # Symbol names referenced by ADDRGP streams go into a shared symbol
    # table (like the baseline's external symbol table); the code streams
    # carry small indices.
    symtab: List[str] = []
    sym_index: Dict[str, int] = {}
    for key, values in literal_streams.items():
        kind = _stream_kind(key)
        if kind == "label":
            values = [int(v) for v in values]
            kind = "int"
        elif kind == "sym":
            indexed = []
            for name in values:
                idx = sym_index.get(name)
                if idx is None:
                    idx = sym_index[name] = len(symtab)
                    symtab.append(name)
                indexed.append(idx)
            values = indexed
            kind = "int"
        elif kind == "float":
            # Keyed by sign too: a bare value key aliases -0.0 with 0.0.
            values = [(v, math.copysign(1.0, v)) for v in values]
        idx_bytes, novels = _encode_mtf_stream(values)
        streams[f"lit.{key}.idx"] = idx_bytes
        blob = bytearray()
        write_uvarint(blob, len(novels))
        if kind == "int":
            blob.extend(_pack_int_novels(novels))
        else:  # float
            blob.extend(_pack_float_novels([v for v, _ in novels]))
        streams[f"lit.{key}.new"] = bytes(blob)

    blob = bytearray()
    write_uvarint(blob, len(symtab))
    blob.extend(_pack_str_novels(symtab))
    streams["symtab"] = bytes(blob)
    return streams


def encode_module(module: IRModule, compress: bool = True,
                  codec: str = "deflate") -> bytes:
    """Encode ``module`` into the wire format (WIR2: per-stream CRC32).

    ``codec`` picks the per-stream entropy coder; the flag byte each
    stream carries makes the choice self-describing, so decoding needs
    no matching knob.
    """
    pattern_stream, literal_streams, tree_counts, normalized = (
        _collect_streams(module)
    )
    streams = _pack_code_streams(pattern_stream, literal_streams)
    streams["meta"] = _pack_meta(normalized, tree_counts)
    return _MAGIC + pack_streams(streams, compress=compress, checksums=True,
                                 codec=codec)


def _container_streams(
    blob: bytes, limits: Optional[ResourceLimits] = None
) -> Dict[str, bytes]:
    """Validate the magic/version and unpack the stream container.

    ``WIR1`` (the seed format, no checksums) and ``WIR2`` (per-stream
    CRC32) both decode; any other magic or version raises
    :class:`~repro.errors.UnsupportedFormatError`.
    """
    if _wire_version(blob) == 3:
        raise UnsupportedFormatError(
            "WIR3 containers are chunked, not a flat stream container")
    return unpack_streams(blob[4:], limits=limits)


def _wire_version(blob: bytes) -> int:
    """The container version byte, validated; typed error otherwise."""
    if len(blob) < 4 or blob[:3] != _MAGIC_PREFIX:
        raise UnsupportedFormatError("not a wire-format blob")
    if blob[3:4] not in (b"1", b"2", b"3"):
        raise UnsupportedFormatError(
            f"wire container version {blob[3:4]!r} is not supported")
    return blob[3] - ord("0")


def _required_stream(streams: Dict[str, bytes], name: str) -> bytes:
    data = streams.get(name)
    if data is None:
        raise CorruptStreamError(f"container is missing the {name!r} stream")
    return data


def decode_module(
    blob: bytes, limits: Optional[ResourceLimits] = None
) -> IRModule:
    """Decode a wire blob back into an IR module.

    Every count, index, and length is validated against the remaining
    input and against ``limits``; malformed blobs raise a typed
    :class:`~repro.errors.DecodeError` subclass, never an untyped
    exception.
    """
    limits = limits or DEFAULT_LIMITS
    if _wire_version(blob) == 3:
        return _decode_module_v3(blob, limits)
    streams = _container_streams(blob, limits)
    with decode_guard("wire module"):
        module, tree_counts = _unpack_meta(
            _required_stream(streams, "meta"), limits)
        trees = _decode_trees(streams, limits)
        if sum(tree_counts) != len(trees):
            raise CorruptStreamError(
                f"function headers promise {sum(tree_counts)} trees but the "
                f"pattern stream holds {len(trees)}")
        cursor = 0
        for fn, count in zip(module.functions, tree_counts):
            fn.forest.extend(trees[cursor:cursor + count])
            cursor += count
        return module


def _decode_trees(
    streams: Dict[str, bytes], limits: Optional[ResourceLimits] = None
) -> List:
    """Decode the code streams (patterns + literals + symtab) into the
    flat tree list, in pattern-stream order."""
    novel_data = _required_stream(streams, "patterns.new")
    count, pos = read_uvarint(novel_data, 0)
    novel_patterns = _unpack_pattern_novels(novel_data[pos:], count)
    pattern_stream = _decode_mtf_stream(
        _required_stream(streams, "patterns.idx"), novel_patterns, limits)

    symtab_blob = _required_stream(streams, "symtab")
    count, pos = read_uvarint(symtab_blob, 0)
    symtab = _unpack_str_novels(symtab_blob[pos:], count)

    literal_streams: Dict[str, List] = {}
    for name in streams:
        if not name.startswith("lit.") or not name.endswith(".idx"):
            continue
        key = name[4:-4]
        kind = _stream_kind(key)
        novel_blob = _required_stream(streams, f"lit.{key}.new")
        count, pos = read_uvarint(novel_blob, 0)
        if kind in ("label", "int", "sym"):
            novels: List = _unpack_int_novels(novel_blob[pos:], count)
        else:
            novels = _unpack_float_novels(novel_blob[pos:], count)
        values = _decode_mtf_stream(streams[name], novels, limits)
        if kind == "label":
            values = [str(v) for v in values]
        elif kind == "sym":
            resolved = []
            for v in values:
                if not isinstance(v, int) or not 0 <= v < len(symtab):
                    raise CorruptStreamError(
                        f"symbol index {v!r} outside the symbol table")
                resolved.append(symtab[v])
            values = resolved
        literal_streams[key] = values

    source = _LiteralSource(literal_streams)
    return [rebuild_tree(pattern, source) for pattern in pattern_stream]


def wire_size(module: IRModule, code_only: bool = False) -> int:
    """Size in bytes of the wire encoding of ``module``.

    With ``code_only`` the meta stream (global data images, symbol names,
    function headers) is excluded — the paper "compresses only code
    segments", and its conventional-code baseline carries no symbol table
    either, so Table-1 comparisons use this metric.
    """
    blob = encode_module(module)
    if not code_only:
        return len(blob)
    streams = unpack_streams(blob[4:])
    without_meta = pack_streams(
        {k: v for k, v in streams.items() if k not in ("meta", "symtab")},
        checksums=True)
    return 4 + len(without_meta)


def stream_breakdown(module: IRModule) -> Dict[str, int]:
    """Per-stream compressed sizes (for size-analysis reports)."""
    pattern_stream, literal_streams, tree_counts, normalized = (
        _collect_streams(module)
    )
    blob = encode_module(module)
    streams = unpack_streams(blob[4:])
    from ..compress import deflate

    return {name: len(deflate.compress(data)) for name, data in streams.items()}


# ---------------------------------------------------------------------------
# WIR3: the seekable chunked container
# ---------------------------------------------------------------------------
#
# Layout:
#
#   "WIR3" | crc32(header) u32 LE | uvarint header_len | header | chunks
#
# The header carries the module name, the globals (same packing as the v2
# meta stream), the function headers — each with its chunk id and its span
# length in the *decoded address space* (see :func:`function_image`) — and
# the chunk table: per chunk, the offset (relative to the chunk area),
# stored length, and CRC32.  Each chunk is a self-contained v2-style
# stream container (``pack_streams``) holding the pattern/literal/symtab
# streams of just its member functions plus a "counts" stream of their
# per-function tree counts, so decoding any one chunk never touches
# another chunk's bytes.


def function_image(fn: IRFunction) -> bytes:
    """A function's bytes in the decoded address space.

    The v3 "address space" is the concatenation of every function's
    canonical IR dump (header line + one tree per line), in module
    order — a stable, byte-exact rendering of a full decode that
    ``decode_range`` can slice without decompressing unrelated chunks.
    """
    from ..ir.dump import dump_function

    return (dump_function(fn) + "\n").encode("utf-8")


def _function_streams(
    functions: Sequence[IRFunction],
) -> Tuple[List[Pattern], Dict[str, List]]:
    """Patternize already-normalized functions into chunk-local streams."""
    pattern_stream: List[Pattern] = []
    literal_streams: Dict[str, List] = {}
    for fn in functions:
        for tree in fn.forest:
            pattern, literals = patternize_tree(tree)
            pattern_stream.append(pattern)
            for key, value in literals:
                literal_streams.setdefault(key, []).append(value)
    return pattern_stream, literal_streams


def _chunk_payload(members: Sequence[IRFunction], compress: bool) -> bytes:
    pattern_stream, literal_streams = _function_streams(members)
    streams = _pack_code_streams(pattern_stream, literal_streams)
    counts = bytearray()
    for fn in members:
        write_uvarint(counts, len(fn.forest))
    streams["counts"] = bytes(counts)
    return pack_streams(streams, compress=compress, checksums=True)


def encode_module_v3(
    module: IRModule,
    compress: bool = True,
    placement: Optional[ChunkPlacement] = None,
) -> bytes:
    """Encode ``module`` as a seekable WIR3 container.

    ``placement`` decides which functions share a chunk (default:
    :class:`~repro.container.chunking.GreedyPlacement`).  Placement
    extents are sized in decoded-address-space bytes (the span lengths),
    so the chunk cap is a bound on how much decoded code one chunk
    serves, independent of deflate luck.
    """
    normalized = [normalize_labels(fn) for fn in module.functions]
    images = [function_image(fn) for fn in normalized]
    extents = [FunctionExtent(fn.name, len(image))
               for fn, image in zip(normalized, images)]
    placement = placement or GreedyPlacement()
    groups = validate_placement(placement.place(extents), len(normalized))
    chunk_of: Dict[int, int] = {}
    for cid, members in enumerate(groups):
        for index in members:
            chunk_of[index] = cid
    chunk_blobs = [
        _chunk_payload([normalized[i] for i in members], compress)
        for members in groups
    ]

    header = bytearray()
    name_raw = module.name.encode("utf-8")
    write_uvarint(header, len(name_raw))
    header.extend(name_raw)
    _pack_globals_meta(header, module.globals)
    write_uvarint(header, len(normalized))
    for index, fn in enumerate(normalized):
        _pack_fn_header(header, fn)
        write_uvarint(header, chunk_of[index])
        write_uvarint(header, len(images[index]))
    write_uvarint(header, len(chunk_blobs))
    offset = 0
    for chunk_blob in chunk_blobs:
        write_uvarint(header, offset)
        write_uvarint(header, len(chunk_blob))
        header.extend(zlib.crc32(chunk_blob).to_bytes(4, "little"))
        offset += len(chunk_blob)

    # The header deflates like the v2 meta stream did; the CRC covers the
    # raw (decompressed) header so index corruption is caught either way.
    from ..compress import deflate

    packed_header = deflate.compress(bytes(header))
    prefix = bytearray(_MAGIC_V3)
    prefix.extend(zlib.crc32(bytes(header)).to_bytes(4, "little"))
    write_uvarint(prefix, len(packed_header))
    return bytes(prefix) + packed_header + b"".join(chunk_blobs)


def _parse_v3_header(blob: bytes, limits: ResourceLimits) -> Tuple[bytes, int]:
    """Verify the WIR3 prefix framing; returns (header, header_bytes).

    ``header_bytes`` is the chunk-area base offset — the prefix every
    partial read must hold.
    """
    from ..compress import deflate

    stored, pos = take_bytes(blob, 4, 4, "wire header CRC")
    hlen, pos = read_uvarint(blob, pos)
    limits.check("wire header size", hlen, limits.max_decoded_bytes)
    packed, pos = take_bytes(blob, pos, hlen, "wire container header")
    header = deflate.decompress(packed, limits)
    if zlib.crc32(header) != int.from_bytes(stored, "little"):
        raise CorruptStreamError("wire container header CRC mismatch")
    return header, pos


def _unpack_v3_header(
    header: bytes, limits: ResourceLimits
) -> Tuple[IRModule, List[Tuple[int, int]], List[Tuple[int, int, int]]]:
    """Parse a WIR3 header into (module skeleton, per-function
    (chunk id, span length), per-chunk (offset, length, crc32))."""
    name, pos = _read_name(header, 0, "module name")
    module = IRModule(name)
    module.globals, pos = _unpack_globals_meta(header, pos)
    nfuncs, pos = read_uvarint(header, pos)
    limits.check("function count", nfuncs, limits.max_functions)
    if nfuncs > len(header) - pos:
        raise TruncatedStreamError(
            f"header promises {nfuncs} functions, header too short")
    fn_meta: List[Tuple[int, int]] = []
    for _ in range(nfuncs):
        fn, pos = _read_fn_header(header, pos)
        chunk_id, pos = read_uvarint(header, pos)
        span_len, pos = read_uvarint(header, pos)
        module.functions.append(fn)
        fn_meta.append((chunk_id, span_len))
    nchunks, pos = read_uvarint(header, pos)
    limits.check("chunk count", nchunks, limits.max_streams)
    if nchunks * 6 > len(header) - pos:  # each chunk costs >= 6 bytes
        raise TruncatedStreamError(
            f"header promises {nchunks} chunks, header too short")
    chunk_meta: List[Tuple[int, int, int]] = []
    for _ in range(nchunks):
        offset, pos = read_uvarint(header, pos)
        length, pos = read_uvarint(header, pos)
        raw, pos = take_bytes(header, pos, 4, "chunk CRC")
        chunk_meta.append((offset, length, int.from_bytes(raw, "little")))
    for chunk_id, _ in fn_meta:
        if chunk_id >= nchunks:
            raise CorruptStreamError(
                f"function references chunk {chunk_id} of {nchunks}")
    return module, fn_meta, chunk_meta


def container_index(
    blob: bytes, limits: Optional[ResourceLimits] = None
) -> ContainerIndex:
    """Parse the block index of a WIR3 container (no chunk decoding)."""
    limits = limits or DEFAULT_LIMITS
    if _wire_version(blob) != 3:
        raise UnsupportedFormatError(
            f"{blob[:4]!r} is not a seekable (WIR3) container")
    with decode_guard("wire container index"):
        header, base = _parse_v3_header(blob, limits)
        module, fn_meta, chunk_meta = _unpack_v3_header(header, limits)
        index = ContainerIndex(
            kind="wire", version=3,
            total_bytes=base + sum(length for _, length, _ in chunk_meta),
            header_bytes=base)
        members: Dict[int, List[int]] = {}
        span = 0
        for i, (fn, (chunk_id, span_len)) in enumerate(
                zip(module.functions, fn_meta)):
            index.functions.append(
                FunctionRecord(i, fn.name, chunk_id, span, span_len))
            members.setdefault(chunk_id, []).append(i)
            span += span_len
        for cid, (offset, length, crc) in enumerate(chunk_meta):
            index.chunks.append(
                ChunkRecord(cid, base + offset, length, crc,
                            tuple(members.get(cid, ()))))
        return index


def _decode_v3_chunk(
    blob: bytes, chunk: ChunkRecord, limits: ResourceLimits
) -> Tuple[List[int], List]:
    """CRC-check and decode one chunk; returns (tree counts, trees)."""
    if chunk.offset + chunk.length > len(blob):
        raise TruncatedStreamError(
            f"chunk {chunk.index} extent [{chunk.offset}, "
            f"{chunk.offset + chunk.length}) beyond the {len(blob)}-byte "
            f"container")
    payload = blob[chunk.offset:chunk.offset + chunk.length]
    if zlib.crc32(payload) != chunk.crc32:
        raise CorruptStreamError(f"chunk {chunk.index} CRC mismatch")
    streams = unpack_streams(payload, limits=limits)
    counts_data = _required_stream(streams, "counts")
    counts: List[int] = []
    pos = 0
    while pos < len(counts_data):
        count, pos = read_uvarint(counts_data, pos)
        counts.append(count)
    if len(counts) != len(chunk.members):
        raise CorruptStreamError(
            f"chunk {chunk.index} holds {len(counts)} functions, the index "
            f"maps {len(chunk.members)} to it")
    trees = _decode_trees(streams, limits)
    if sum(counts) != len(trees):
        raise CorruptStreamError(
            f"chunk {chunk.index} promises {sum(counts)} trees but decodes "
            f"{len(trees)}")
    return counts, trees


def _decode_chunk_functions(
    blob: bytes,
    module: IRModule,
    chunk: ChunkRecord,
    limits: ResourceLimits,
) -> None:
    """Fill in the forests of one chunk's member functions, in place."""
    counts, trees = _decode_v3_chunk(blob, chunk, limits)
    cursor = 0
    for member, count in zip(chunk.members, counts):
        module.functions[member].forest.extend(trees[cursor:cursor + count])
        cursor += count


def _decode_module_v3(blob: bytes, limits: ResourceLimits) -> IRModule:
    with decode_guard("wire module"):
        header, base = _parse_v3_header(blob, limits)
        module, _, _ = _unpack_v3_header(header, limits)
    index = container_index(blob, limits)
    with decode_guard("wire module"):
        for chunk in index.chunks:
            _decode_chunk_functions(blob, module, chunk, limits)
        return module


def decode_function(
    blob: bytes, name: str, limits: Optional[ResourceLimits] = None
) -> IRFunction:
    """Decode one function by name, touching only its covering chunk.

    On a WIR3 blob this verifies the header CRC and the target chunk's
    CRC only — corruption elsewhere in the container is invisible, which
    is the isolation property the fuzz harness checks.  v1/v2 blobs fall
    back to a full decode.  The result is exactly the function a full
    :func:`decode_module` would return.
    """
    limits = limits or DEFAULT_LIMITS
    if _wire_version(blob) != 3:
        module = decode_module(blob, limits)
        for fn in module.functions:
            if fn.name == name:
                return fn
        raise CorruptStreamError(
            f"container has no function {name!r} "
            f"(have: {[f.name for f in module.functions]})")
    index = container_index(blob, limits)
    record = index.function(name)
    with decode_guard("wire module"):
        header, _ = _parse_v3_header(blob, limits)
        module, _, _ = _unpack_v3_header(header, limits)
        _decode_chunk_functions(blob, module, index.chunks[record.chunk],
                                limits)
        return module.functions[record.index]


def decode_range(
    blob: bytes, start: int, length: int,
    limits: Optional[ResourceLimits] = None,
) -> bytes:
    """Decoded-address-space bytes ``[start, start+length)``.

    Byte-identical to concatenating :func:`function_image` over a full
    :func:`decode_module` and slicing — but on a WIR3 blob only the
    chunks covering the requested span are CRC-checked and decompressed.
    Out-of-range spans clamp like a Python slice; negative arguments
    raise a typed error.
    """
    limits = limits or DEFAULT_LIMITS
    if start < 0 or length < 0:
        raise CorruptStreamError(
            f"invalid range request start={start} length={length}")
    end = start + length
    if _wire_version(blob) != 3:
        whole = b"".join(function_image(fn)
                         for fn in decode_module(blob, limits).functions)
        return whole[start:end]
    index = container_index(blob, limits)
    records = index.functions_in_span(start, length)
    with decode_guard("wire module"):
        header, _ = _parse_v3_header(blob, limits)
        module, _, _ = _unpack_v3_header(header, limits)
        for cid in sorted({record.chunk for record in records}):
            _decode_chunk_functions(blob, module, index.chunks[cid], limits)
        out = bytearray()
        for record in sorted(records, key=lambda r: r.span_start):
            image = function_image(module.functions[record.index])
            if len(image) != record.span_length:
                raise CorruptStreamError(
                    f"function {record.name!r} decodes to {len(image)} span "
                    f"bytes, the index promises {record.span_length}")
            lo = max(start, record.span_start)
            hi = min(end, record.span_start + record.span_length)
            out.extend(image[lo - record.span_start:hi - record.span_start])
        return bytes(out)
