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

from typing import Dict, List, Optional, Sequence, Tuple

from ..compress import huffman
from ..compress.bitio import (
    DOUBLE, literal_key, read_byte, read_name, read_uvarint, unzigzag,
    write_name, write_uvarint, zigzag,
)
from ..compress.mtf import mtf_decode, mtf_encode
from ..compress.streams import pack_streams, unpack_streams
from ..container.chunking import (
    DEFAULT_CHUNK_BYTES, ChunkRecord, ContainerIndex, chunk_payload,
    pack_chunks, read_header, read_index, read_span, write_container,
)
from ..container.data import read_globals, write_globals
from ..errors import (
    CorruptStreamError, DEFAULT_LIMITS, ResourceLimits,
    TruncatedStreamError, UnsupportedFormatError, decode_guard,
)
from ..ir.ops import op
from ..ir.tree import IRFunction, IRModule
from .patternize import (
    Pattern, _LiteralSource, normalize_labels, patternize_tree, rebuild_tree,
)

__all__ = [
    "container_index", "decode_function", "decode_module", "decode_range",
    "encode_module", "encode_module_v3", "function_image",
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
        write_name(out, v)
    return bytes(out)


def _unpack_str_novels(data: bytes, count: int) -> List[str]:
    if count > len(data):
        raise TruncatedStreamError(
            f"novel stream promises {count} strings, only {len(data)} bytes")
    values: List[str] = []
    pos = 0
    for _ in range(count):
        value, pos = read_name(data, pos, "string novel")
        values.append(value)
    return values


def _unpack_float_novels(data: bytes, count: int) -> List[float]:
    if count * 8 > len(data):
        raise TruncatedStreamError(
            f"novel stream promises {count} doubles, only {len(data)} bytes")
    return [value for (value,) in DOUBLE.iter_unpack(data[:count * 8])]


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
            byte, pos = read_byte(data, pos, "pattern opcode")
            opcode = byte & 0x7F
            name = by_opcode.get(opcode)
            if name is None:
                raise CorruptStreamError(f"unknown opcode {opcode} in pattern")
            width = 0
            if byte & 0x80:
                width, pos = read_byte(data, pos, "pattern width byte")
            syms.append((name, width))
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


def _pack_fn_header(out: bytearray, fn: IRFunction) -> None:
    write_name(out, fn.name)
    write_uvarint(out, fn.frame_size)
    out.append(ord(fn.ret_suffix))
    write_uvarint(out, len(fn.param_sizes))
    for size in fn.param_sizes:
        write_uvarint(out, size)


def _pack_meta(module: IRModule, fields: Sequence[Sequence[int]]) -> bytes:
    """Module name, globals, then every function's header followed by its
    per-version fields: the tree count in a v2 meta stream, the chunk id
    and span length in a v3 header."""
    out = bytearray()
    write_name(out, module.name)
    write_globals(out, module.globals)
    write_uvarint(out, len(module.functions))
    for fn, values in zip(module.functions, fields):
        _pack_fn_header(out, fn)
        for value in values:
            write_uvarint(out, value)
    return bytes(out)


def _read_fn_header(data: bytes, pos: int) -> Tuple[IRFunction, int]:
    name, pos = read_name(data, pos, "function name")
    frame_size, pos = read_uvarint(data, pos)
    suffix_byte, pos = read_byte(data, pos, "return suffix")
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
    data: bytes, limits: ResourceLimits, nfields: int = 1
) -> Tuple[IRModule, List[List[int]], int]:
    """Invert :func:`_pack_meta`: (module skeleton, each function's
    ``nfields`` fields, end position)."""
    name, pos = read_name(data, 0, "module name")
    module = IRModule(name)
    module.globals, pos = read_globals(data, pos)
    nfuncs, pos = read_uvarint(data, pos)
    limits.check("function count", nfuncs, limits.max_functions)
    if nfuncs > len(data) - pos:
        raise TruncatedStreamError(
            f"meta promises {nfuncs} functions, stream too short")
    fields: List[List[int]] = []
    for _ in range(nfuncs):
        fn, pos = _read_fn_header(data, pos)
        values = []
        for _ in range(nfields):
            value, pos = read_uvarint(data, pos)
            values.append(value)
        module.functions.append(fn)
        fields.append(values)
    return module, fields, pos


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def _function_streams(
    functions: Sequence[IRFunction],
) -> Tuple[List[Pattern], Dict[str, List]]:
    """Patternize already-normalized functions into one set of streams."""
    pattern_stream: List[Pattern] = []
    literal_streams: Dict[str, List] = {}
    for fn in functions:
        for tree in fn.forest:
            pattern, literals = patternize_tree(tree)
            pattern_stream.append(pattern)
            for key, value in literals:
                literal_streams.setdefault(key, []).append(value)
    return pattern_stream, literal_streams


def _collect_streams(module: IRModule) -> Tuple[
    List[Pattern], Dict[str, List], List[int], IRModule
]:
    """Patternize the whole module.

    Returns (pattern stream, literal streams, per-function tree counts,
    label-normalized module).
    """
    normalized = IRModule(module.name, list(module.globals),
                          [normalize_labels(fn) for fn in module.functions])
    pattern_stream, literal_streams = _function_streams(normalized.functions)
    tree_counts = [len(fn.forest) for fn in normalized.functions]
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
            # A double's literal_key is its encoding, so the novels are
            # the bytes the stream stores.
            values = [literal_key(v) for v in values]
        idx_bytes, novels = _encode_mtf_stream(values)
        streams[f"lit.{key}.idx"] = idx_bytes
        blob = bytearray()
        write_uvarint(blob, len(novels))
        if kind == "int":
            blob.extend(_pack_int_novels(novels))
        else:  # float
            blob.extend(b"".join(novels))
        streams[f"lit.{key}.new"] = bytes(blob)

    blob = bytearray()
    write_uvarint(blob, len(symtab))
    blob.extend(_pack_str_novels(symtab))
    streams["symtab"] = bytes(blob)
    return streams


def encode_module(module: IRModule, compress: bool = True) -> bytes:
    """Encode ``module`` into the wire format (WIR2: per-stream CRC32)."""
    pattern_stream, literal_streams, tree_counts, normalized = (
        _collect_streams(module)
    )
    streams = _pack_code_streams(pattern_stream, literal_streams)
    streams["meta"] = _pack_meta(normalized,
                                 [(count,) for count in tree_counts])
    return _MAGIC + pack_streams(streams, compress=compress, checksums=True)


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
        with decode_guard("wire module"):
            module, index = _open_v3(blob, limits)
            for chunk in index.chunks:
                _decode_chunk_functions(blob, module, chunk, limits)
            return module
    streams = _container_streams(blob, limits)
    with decode_guard("wire module"):
        module, fields, _ = _unpack_meta(
            _required_stream(streams, "meta"), limits)
        tree_counts = [values[0] for values in fields]
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


# ---------------------------------------------------------------------------
# WIR3: the seekable chunked container
# ---------------------------------------------------------------------------
#
# The framing, chunk table and block index are :mod:`repro.container`'s.
# What is WIR3's own: the header (stored deflated) is the v2 meta stream
# with each function's chunk id and its span length in the *decoded
# address space* (see :func:`function_image`) in place of its tree count.
# Each chunk is a self-contained v2-style stream container
# (``pack_streams``) holding the pattern/literal/symtab streams of just
# its member functions plus a "counts" stream of their per-function tree
# counts, so decoding any one chunk never touches another chunk's bytes.


def function_image(fn: IRFunction) -> bytes:
    """A function's bytes in the decoded address space.

    The v3 "address space" is the concatenation of every function's
    canonical IR dump (header line + one tree per line), in module
    order — a stable, byte-exact rendering of a full decode that
    ``decode_range`` can slice without decompressing unrelated chunks.
    """
    from ..ir.dump import dump_function

    return (dump_function(fn) + "\n").encode("utf-8")


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
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> bytes:
    """Encode ``module`` as a seekable WIR3 container.

    Functions are grouped by :func:`~repro.container.pack_chunks` under
    the ``chunk_bytes`` cap, sized in decoded-address-space bytes (the
    span lengths), so the cap bounds how much decoded code one chunk
    serves, independent of deflate luck.
    """
    from ..compress import deflate

    normalized = IRModule(module.name, list(module.globals),
                          [normalize_labels(fn) for fn in module.functions])
    spans = [len(function_image(fn)) for fn in normalized.functions]
    groups = pack_chunks(spans, chunk_bytes)
    chunk_of = {i: cid for cid, members in enumerate(groups) for i in members}
    header = _pack_meta(normalized, [(chunk_of[i], span)
                                     for i, span in enumerate(spans)])
    chunks = [_chunk_payload([normalized.functions[i] for i in members],
                             compress)
              for members in groups]
    # The header deflates like the v2 meta stream does.
    return write_container(_MAGIC_V3, header, chunks, deflate.compress)


def _open_v3(blob: bytes,
             limits: ResourceLimits) -> Tuple[IRModule, ContainerIndex]:
    """Parse a WIR3 header once: the module skeleton (every function
    with an empty forest) and the block index."""
    from ..compress import deflate

    header, base = read_header(blob, limits, "wire", deflate.decompress)
    module, fields, pos = _unpack_meta(header, limits, nfields=2)
    return module, read_index(
        "wire", header, pos, base, limits,
        [(fn.name, chunk, span)
         for fn, (chunk, span) in zip(module.functions, fields)])


def container_index(
    blob: bytes, limits: Optional[ResourceLimits] = None
) -> ContainerIndex:
    """Parse the block index of a WIR3 container (no chunk decoding)."""
    limits = limits or DEFAULT_LIMITS
    if _wire_version(blob) != 3:
        raise UnsupportedFormatError(
            f"{blob[:4]!r} is not a seekable (WIR3) container")
    with decode_guard("wire container index"):
        return _open_v3(blob, limits)[1]


def _decode_chunk_functions(
    blob: bytes,
    module: IRModule,
    chunk: ChunkRecord,
    limits: ResourceLimits,
) -> List[IRFunction]:
    """CRC-check and decode one chunk, filling in the forests of its
    member functions in place; returns the members."""
    streams = unpack_streams(chunk_payload(blob, chunk), limits=limits)
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
    members = [module.functions[i] for i in chunk.members]
    cursor = 0
    for fn, count in zip(members, counts):
        fn.forest.extend(trees[cursor:cursor + count])
        cursor += count
    return members


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
    with decode_guard("wire module"):
        module, index = _open_v3(blob, limits)
        record = index.function(name)
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
    if _wire_version(blob) != 3:
        whole = b"".join(function_image(fn)
                         for fn in decode_module(blob, limits).functions)
        return whole[start:start + length]
    with decode_guard("wire module"):
        module, index = _open_v3(blob, limits)
        return read_span(index, start, length, lambda chunk: [
            function_image(fn)
            for fn in _decode_chunk_functions(blob, module, chunk, limits)])
