"""BRISC image serialization: byte encoding and decoding.

An image holds the dictionary (serialized patterns), the Markov successor
tables, global data, and per-function code bytes plus the basic-block
start offsets that make the code randomly addressable.  The slot reader
below (:func:`decode_slot` and its two steps, :func:`slot_context` and
:func:`resolve_opcode`) is the one read path of the slot format: the
decoder, the in-place interpreter and the JIT all go through it.  The
decoder reconstructs a runnable :class:`~repro.vm.instr.VMProgram`;
semantics are preserved exactly (labels are regenerated as ``L<offset>``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..compress.bitio import (
    DOUBLE, read_name, read_uvarint, take_bytes, unzigzag, write_name,
    write_uvarint, zigzag,
)
from ..container.chunking import (
    DEFAULT_CHUNK_BYTES, ChunkRecord, ContainerIndex, chunk_payload,
    pack_chunks, read_header, read_index, read_span, write_container,
)
from ..container.data import read_globals, write_globals
from ..errors import (
    CorruptStreamError, DEFAULT_LIMITS, ResourceLimits,
    TruncatedStreamError, UnsupportedFormatError, decode_guard,
)
from ..ir.tree import GlobalData
from ..vm.instr import Instr, VMFunction, VMProgram
from ..vm.isa import NUM_FREGS, SPEC, Operand
from .markov import (
    CTX_BB, CTX_ENTRY, ESCAPE, MarkovModel, build_markov, context_stream,
)
from .pattern import (
    _BYTE_SIZES, _NIBBLE_CLASSES, Burned, DictPattern, deserialize_pattern,
    serialize_pattern,
)
from .slots import SlotProgram

__all__ = [
    "BriscImage", "container_index", "decode_function", "decode_image",
    "decode_range", "encode_image", "repack_v3",
]

# Fourth magic byte = container version.  "BRI1" (the seed format) has no
# integrity check; "BRI2" carries a CRC32 of the entire payload right after
# the magic, verified before any parsing, so corruption is detected up
# front instead of mid-dictionary-rebuild.  BRISC is interpreted in place
# from one monolithic image, so a whole-payload CRC plays the role the
# per-stream CRCs play in the (multi-stream) wire container.  "BRI3" is
# the seekable layout: the header (dictionary, tables, globals, function
# metadata, block index) carries its own CRC, and the function code bytes
# move into per-chunk extents each with their own CRC — see the v3
# section below.
_MAGIC_PREFIX = b"BRI"
_MAGIC_V1 = b"BRI1"
_MAGIC = b"BRI2"
_MAGIC_V3 = b"BRI3"


@dataclass
class BriscImage:
    """An encoded BRISC program plus its measurement breakdown."""

    blob: bytes
    breakdown: Dict[str, int] = field(default_factory=dict)
    opcode_bytes: int = 0
    operand_bytes: int = 0
    max_successors: int = 0
    pattern_count: int = 0

    def __len__(self) -> int:
        return len(self.blob)

    @property
    def size(self) -> int:
        return len(self.blob)

    @property
    def code_segment_size(self) -> int:
        """Code + dictionary + Markov tables — the paper's metric scope
        ("we compress only code segments"; data/meta are excluded)."""
        return (self.breakdown.get("code", 0)
                + self.breakdown.get("dictionary", 0)
                + self.breakdown.get("tables", 0))


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _slot_bytes(
    pattern: DictPattern,
    insns: Tuple[Instr, ...],
    opcode: bytes,
    label_offsets: Dict[str, int],
    symbol_ids: Dict[str, int],
) -> bytes:
    """Opcode byte(s) + packed operand bytes for one slot."""
    out = bytearray(opcode)
    _, classes, _ = pattern.operand_layout()
    values = pattern.wildcard_values(insns)
    assert len(values) == len(classes)
    nibbles: List[int] = []
    wide = bytearray()
    for (cls, value) in values:
        if cls in ("r", "f"):
            nibbles.append(int(value) & 0xF)
        elif cls == "n4":
            nibbles.append((int(value) // 4) & 0xF)
        elif cls in ("b", "h", "w"):
            wide += int(value).to_bytes(_BYTE_SIZES[cls], "little", signed=True)
        elif cls == "l":
            assert isinstance(value, str)
            wide += label_offsets[value].to_bytes(2, "little")
        elif cls == "s":
            assert isinstance(value, str)
            wide += symbol_ids[value].to_bytes(2, "little")
        else:  # d
            wide += DOUBLE.pack(float(value))
    for i in range(0, len(nibbles), 2):
        hi = nibbles[i]
        lo = nibbles[i + 1] if i + 1 < len(nibbles) else 0
        out.append((hi << 4) | lo)
    out += wide
    return bytes(out)


#: Interned single-byte opcodes, so the per-slot fast path allocates
#: nothing (escapes still build their 3-byte form).
_OPCODE_BYTES = [bytes([i]) for i in range(256)]


def _opcode_for(reverse_table: Dict[int, int], pid: int) -> bytes:
    """The context-relative opcode byte (with 2-byte escape if needed).

    ``reverse_table`` maps pattern id -> table index (first occurrence),
    precomputed once per context so the per-slot lookup is O(1) instead
    of an O(n) ``list.index`` scan.
    """
    idx = reverse_table.get(pid, ESCAPE)
    if idx < ESCAPE:
        return _OPCODE_BYTES[idx]
    return _OPCODE_BYTES[ESCAPE] + pid.to_bytes(2, "little")


def _symbol_ids(functions, globals_: List[GlobalData]) -> Dict[str, int]:
    """The symbol index space symbol operands index: function names
    first, then the globals that are not functions."""
    names = [fn.name for fn in functions] + [g.name for g in globals_]
    return {name: i for i, name in enumerate(dict.fromkeys(names))}


def encode_image(
    slots: SlotProgram, globals_: List[GlobalData]
) -> Tuple[BriscImage, MarkovModel]:
    """Serialize a slot program into a BRISC image."""
    model, fn_ids = build_markov(slots)
    # Trim stored tables to 255 entries (escape covers the tail).
    stored_tables = {ctx: t[:ESCAPE] for ctx, t in model.tables.items()}
    # Per-context reverse maps (pid -> first index) for O(1) opcode lookup.
    reverse_tables: Dict[int, Dict[int, int]] = {}
    for ctx, table in stored_tables.items():
        reverse: Dict[int, int] = {}
        for i, pid in enumerate(table):
            reverse.setdefault(pid, i)
        reverse_tables[ctx] = reverse
    symbol_ids = _symbol_ids(slots.functions, globals_)

    out = bytearray()  # container payload; magic + CRC32 are prepended below
    dict_bytes, table_bytes, meta_bytes = _pack_preamble(
        out, model.patterns, stored_tables, globals_, slots.entry)

    # Functions.
    code_bytes = 0
    opcode_total = 0
    operand_total = 0
    write_uvarint(out, len(slots.functions))
    for fi, fn in enumerate(slots.functions):
        # First pass: slot byte offsets (opcode escapes add 2 bytes).
        offsets: List[int] = []
        cursor = 0
        opcodes: List[bytes] = []
        for slot, (ctx, pid) in zip(fn.slots,
                                    context_stream(fn, fn_ids[fi])):
            opcode = _opcode_for(reverse_tables.get(ctx, {}), pid)
            opcodes.append(opcode)
            offsets.append(cursor)
            cursor += len(opcode) + slot.pattern.operand_bytes()
        total_len = cursor
        label_offsets: Dict[str, int] = {}
        bb_offsets: Set[int] = set()
        for i, slot in enumerate(fn.slots):
            for label in slot.labels:
                label_offsets[label] = offsets[i]
            if slot.is_block_start and i > 0:
                bb_offsets.add(offsets[i])
        # Second pass: emit.
        body = bytearray()
        for i, slot in enumerate(fn.slots):
            encoded = _slot_bytes(slot.pattern, slot.insns, opcodes[i],
                                  label_offsets, symbol_ids)
            opcode_total += len(opcodes[i])
            operand_total += len(encoded) - len(opcodes[i])
            body += encoded
        assert len(body) == total_len
        code_bytes += total_len
        _pack_function(out, DecodedFunction(
            fn.name, fn.frame_size, fn.param_bytes, bytes(body), bb_offsets))

    payload = bytes(out)
    image = BriscImage(
        blob=_MAGIC + zlib.crc32(payload).to_bytes(4, "little") + payload,
        breakdown={
            "dictionary": dict_bytes,
            "tables": table_bytes,
            "meta": meta_bytes,
            "code": code_bytes,
        },
        opcode_bytes=opcode_total,
        operand_bytes=operand_total,
        max_successors=model.max_successors(),
        pattern_count=len(model.patterns),
    )
    return image, model


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


@dataclass
class DecodedImage:
    """Parsed image: everything needed to interpret or rebuild a program."""

    patterns: List[DictPattern]
    tables: Dict[int, List[int]]
    globals: List[GlobalData]
    entry: str
    functions: List["DecodedFunction"] = field(default_factory=list)
    _symbols: Optional[Tuple[List[str], Dict[str, int]]] = field(
        default=None, init=False, repr=False, compare=False)

    def symbol_table(self) -> Tuple[List[str], Dict[str, int]]:
        """The symbol index space, function names first and then the
        globals that are not functions, plus each name's index.  Built on
        first use, after parsing has read the function table."""
        if self._symbols is None:
            ids = _symbol_ids(self.functions, self.globals)
            self._symbols = (list(ids), ids)
        return self._symbols


@dataclass
class DecodedFunction:
    name: str
    frame_size: int
    param_bytes: int
    code: bytes
    bb_offsets: Set[int] = field(default_factory=set)


def _brisc_version(blob: bytes) -> int:
    """The container version byte, validated; typed error otherwise."""
    if blob[:3] != _MAGIC_PREFIX:
        raise UnsupportedFormatError("not a BRISC image (bad magic)")
    if len(blob) < 4 or blob[3:4] not in (b"1", b"2", b"3"):
        raise UnsupportedFormatError(
            f"BRISC container version {blob[3:4]!r} is newer than this "
            f"decoder")
    return blob[3] - ord("0")


def _image_payload(blob: bytes) -> bytes:
    """Validate the magic/version/CRC framing; return the bare payload."""
    if blob[:3] != _MAGIC_PREFIX:
        raise UnsupportedFormatError("not a BRISC image (bad magic)")
    version, _ = take_bytes(blob, 3, 1, "BRISC version byte")
    if version == b"1":  # seed format: no integrity check
        return blob[4:]
    if version != b"2":
        raise UnsupportedFormatError(
            f"BRISC container version {version!r} is newer than this decoder")
    stored, pos = take_bytes(blob, 4, 4, "BRISC payload CRC")
    payload = blob[pos:]
    if zlib.crc32(payload) != int.from_bytes(stored, "little"):
        raise CorruptStreamError("BRISC payload CRC mismatch")
    return payload


def _parse_preamble(
    data: bytes, pos: int, limits: ResourceLimits
) -> Tuple[DecodedImage, int, int]:
    """Parse dictionary + tables + globals + entry + function count — the
    part v2 payloads and v3 headers share.  Returns (image shell with no
    functions yet, nfuncs, pos)."""
    npatterns, pos = read_uvarint(data, pos)
    limits.check("pattern count", npatterns, limits.max_patterns)
    if npatterns > len(data) - pos:  # each pattern costs >= 1 byte
        raise TruncatedStreamError(
            f"image promises {npatterns} patterns, "
            f"only {len(data) - pos} bytes remain")
    patterns: List[DictPattern] = []
    for _ in range(npatterns):
        pattern, pos = deserialize_pattern(data, pos)
        patterns.append(pattern)
    ntables, pos = read_uvarint(data, pos)
    if ntables > len(data) - pos:
        raise TruncatedStreamError(
            f"image promises {ntables} tables, image too short")
    tables: Dict[int, List[int]] = {}
    for _ in range(ntables):
        zctx, pos = read_uvarint(data, pos)
        count, pos = read_uvarint(data, pos)
        if count > len(data) - pos:
            raise TruncatedStreamError(
                f"Markov table promises {count} entries, image too short")
        table: List[int] = []
        for _ in range(count):
            pid, pos = read_uvarint(data, pos)
            if pid >= npatterns:
                raise CorruptStreamError(
                    f"Markov table references pattern {pid} "
                    f"of {npatterns}")
            table.append(pid)
        tables[unzigzag(zctx)] = table
    globals_, pos = read_globals(data, pos)
    entry, pos = read_name(data, pos, "entry symbol")
    nfuncs, pos = read_uvarint(data, pos)
    limits.check("function count", nfuncs, limits.max_functions)
    if nfuncs > len(data) - pos:
        raise TruncatedStreamError(
            f"image promises {nfuncs} functions, image too short")
    return DecodedImage(patterns, tables, globals_, entry), nfuncs, pos


def parse_image(
    blob: bytes, limits: Optional[ResourceLimits] = None
) -> DecodedImage:
    """Parse an image's container structure (no slot decoding yet)."""
    limits = limits or DEFAULT_LIMITS
    version = _brisc_version(blob)
    with decode_guard("BRISC image"):
        if version == 3:
            image, index = _open_v3(blob, limits)
            for chunk in index.chunks:
                _split_chunk(blob, image, index, chunk)
            return image
        data = _image_payload(blob)
        out, nfuncs, pos = _parse_preamble(data, 0, limits)
        for _ in range(nfuncs):
            fn, _, _, pos = _read_function(data, pos, limits, v3=False)
            out.functions.append(fn)
        return out


def _pack_function(out: bytearray, fn: DecodedFunction,
                   chunk: Optional[int] = None) -> None:
    """Append one function-table entry: name, frame, params and code
    length; the code bytes (a BRI2 payload) or nothing (a BRI3 header,
    whose code lives in chunk ``chunk``); the delta-coded block-start
    offsets; and in a BRI3 header the chunk id."""
    write_name(out, fn.name)
    write_uvarint(out, fn.frame_size)
    write_uvarint(out, fn.param_bytes)
    write_uvarint(out, len(fn.code))
    if chunk is None:
        out += fn.code
    write_uvarint(out, len(fn.bb_offsets))
    last = 0
    for off in sorted(fn.bb_offsets):
        write_uvarint(out, off - last)
        last = off
    if chunk is not None:
        write_uvarint(out, chunk)


def _read_function(data: bytes, pos: int, limits: ResourceLimits,
                   v3: bool) -> Tuple[DecodedFunction, int, int, int]:
    """Invert :func:`_pack_function`: the function (with empty code in a
    BRI3 header), its code length, its chunk id (0 in BRI2) and the new
    position."""
    name, pos = read_name(data, pos, "function name")
    frame, pos = read_uvarint(data, pos)
    params, pos = read_uvarint(data, pos)
    code_len, pos = read_uvarint(data, pos)
    limits.check("function code size", code_len, limits.max_decoded_bytes)
    code = b""
    if not v3:
        code, pos = take_bytes(data, pos, code_len,
                               f"code for function {name!r}")
    nbb, pos = read_uvarint(data, pos)
    if nbb > len(data) - pos:
        raise TruncatedStreamError(
            f"function {name!r} promises {nbb} block offsets, "
            f"image too short")
    offsets: Set[int] = set()
    last = 0
    for _ in range(nbb):
        delta, pos = read_uvarint(data, pos)
        last += delta
        if last > code_len:
            raise CorruptStreamError(
                f"block offset {last} beyond code of {code_len} "
                f"bytes in {name!r}")
        offsets.add(last)
    chunk = 0
    if v3:
        chunk, pos = read_uvarint(data, pos)
    fn = DecodedFunction(name, frame, params, code, offsets)
    return fn, code_len, chunk, pos


# ---------------------------------------------------------------------------
# The slot reader
# ---------------------------------------------------------------------------
#
# The read side of the slot format, shared by every consumer of an image:
# ``decode_image`` (decompression), the in-place interpreter and the JIT.
# A slot is an opcode byte, resolved through its Markov context, or the
# escape byte and a 2-byte pattern id; then the pattern's operand bytes,
# nibble-packed operands first and the wider ones after, in class order.

#: Mnemonic -> position of its label operand (branches and ``jmp``).
_LABEL_AT = {name: spec.signature.index(Operand.LABEL)
             for name, spec in SPEC.items()
             if Operand.LABEL in spec.signature}


def slot_context(fn: DecodedFunction, offset: int,
                 prev: Optional[int]) -> Optional[int]:
    """The Markov context that decodes the slot at ``offset``.

    Function entry and block starts have their own contexts, so decoding
    can begin there; any other slot is decoded in the context of the
    pattern before it, ``prev``.  ``None`` when that is unknown (a jump
    into the middle of a block).
    """
    if offset == 0:
        return CTX_ENTRY
    if offset in fn.bb_offsets:
        return CTX_BB
    return prev


def resolve_opcode(image: DecodedImage, fn: DecodedFunction, offset: int,
                   ctx: Optional[int]) -> Tuple[int, int]:
    """The pattern id of the slot at ``offset`` decoded in context
    ``ctx``, and the offset of its operand bytes."""
    code = fn.code
    if offset >= len(code):
        raise TruncatedStreamError("image ends before opcode byte")
    byte = code[offset]
    if byte == ESCAPE:
        if offset + 3 > len(code):
            raise TruncatedStreamError("image ends before escaped pattern id")
        pid = code[offset + 1] | code[offset + 2] << 8
        offset += 3
    else:
        table = image.tables.get(ctx)  # type: ignore[arg-type]
        if table is None or byte >= len(table):
            raise CorruptStreamError(
                f"invalid opcode byte {byte} in context {ctx}")
        pid = table[byte]
        offset += 1
    if pid >= len(image.patterns):
        raise CorruptStreamError(
            f"slot references pattern {pid} of {len(image.patterns)}")
    return pid, offset


def decode_slot(
    image: DecodedImage,
    fn: DecodedFunction,
    offset: int,
    ctx: Optional[int],
    symbols: Optional[List] = None,
) -> Tuple[int, Tuple[Tuple[str, tuple], ...], int]:
    """Decode the slot at ``offset`` in context ``ctx``.

    Returns ``(pattern id, parts, next offset)``, with one ``(mnemonic,
    operands)`` pair per pattern part.  A label operand is a code offset
    in ``fn``; a symbol operand, wildcard or burned, is looked up by its
    index in :meth:`DecodedImage.symbol_table` as ``symbols[index]``
    (default: the names themselves), so each caller names both its own
    way.  Every operand is range-checked.
    """
    pid, offset = resolve_opcode(image, fn, offset, ctx)
    pattern = image.patterns[pid]
    _, classes, nnib = pattern.operand_layout()
    names, ids = image.symbol_table()
    if symbols is None:
        symbols = names
    code = fn.code
    end = offset + (nnib + 1) // 2
    if end > len(code):
        raise TruncatedStreamError("image ends before operand nibbles")
    nibbles: List[int] = []
    for byte in code[offset:end]:
        nibbles += (byte >> 4, byte & 0xF)
    offset = end
    values: List[object] = []
    ni = 0
    for cls in classes:
        if cls in _NIBBLE_CLASSES:
            value = nibbles[ni]
            ni += 1
            if cls == "n4":
                value *= 4
            elif cls == "f" and value >= NUM_FREGS:
                raise CorruptStreamError(f"register f{value} of {NUM_FREGS}")
            values.append(value)
            continue
        end = offset + _BYTE_SIZES[cls]
        if end > len(code):
            raise TruncatedStreamError(f"image ends before {cls!r} operand")
        if cls == "d":
            values.append(DOUBLE.unpack_from(code, offset)[0])
        elif cls == "l":
            target = code[offset] | code[offset + 1] << 8
            if target >= len(code):
                raise CorruptStreamError(
                    f"label offset {target} beyond code of {len(code)} "
                    f"bytes in {fn.name!r}")
            values.append(target)
        elif cls == "s":
            index = code[offset] | code[offset + 1] << 8
            if index >= len(names):
                raise CorruptStreamError(
                    f"symbol index {index} of {len(names)}")
            values.append(symbols[index])
        else:
            values.append(int.from_bytes(code[offset:end], "little",
                                         signed=True))
        offset = end
    parts = []
    vi = 0
    for part in pattern.parts:
        ops: List[object] = []
        for f in part.fields:
            if f.__class__ is not Burned:
                ops.append(values[vi])
                vi += 1
            elif f.value.__class__ is str:  # a burned symbol name
                index = ids.get(f.value)  # type: ignore[arg-type]
                if index is None:
                    raise CorruptStreamError(
                        f"burned symbol {f.value!r} is not in the image")
                ops.append(symbols[index])
            else:
                ops.append(f.value)
        parts.append((part.name, tuple(ops)))
    return pid, tuple(parts), offset


def slot_start(starts: Dict[int, int], fn: DecodedFunction,
               target: int) -> int:
    """``starts[target]`` for a branch target, where ``starts`` maps each
    slot's offset; a branch into the middle of a slot is corrupt."""
    start = starts.get(target)
    if start is None:
        raise CorruptStreamError(
            f"branch to mid-slot offset {target} in {fn.name}")
    return start


def decode_image(
    blob: bytes, limits: Optional[ResourceLimits] = None
) -> VMProgram:
    """Fully decode an image back into a runnable VM program."""
    image = parse_image(blob, limits=limits)
    with decode_guard("BRISC image"):
        program = VMProgram("decoded", entry=image.entry)
        program.globals = list(image.globals)
        for fn in image.functions:
            vmf = VMFunction(fn.name, frame_size=fn.frame_size,
                             param_bytes=fn.param_bytes)
            offset = 0
            pid: Optional[int] = None
            offset_to_index: Dict[int, int] = {}
            referenced: Set[int] = set()
            while offset < len(fn.code):
                offset_to_index[offset] = len(vmf.code)
                pid, parts, offset = decode_slot(
                    image, fn, offset, slot_context(fn, offset, pid))
                for name, ops in parts:
                    at = _LABEL_AT.get(name)
                    if at is not None:
                        referenced.add(ops[at])
                        ops = ops[:at] + (f"L{ops[at]}",) + ops[at + 1:]
                    vmf.code.append(Instr(name, ops))
            # Labels at every block start and at referenced offsets.
            for off in sorted(set(fn.bb_offsets) | {0}):
                if off in offset_to_index:
                    vmf.labels.setdefault(f"L{off}", offset_to_index[off])
            for off in referenced:
                vmf.labels.setdefault(
                    f"L{off}", slot_start(offset_to_index, fn, off))
            program.functions.append(vmf)
        return program


# ---------------------------------------------------------------------------
# BRI3: the seekable chunked container
# ---------------------------------------------------------------------------
#
# The framing, chunk table and block index are :mod:`repro.container`'s.
# What is BRI3's own: the header (stored raw) is the v2 preamble
# (dictionary, Markov tables, globals, entry) followed by the function
# table — name, frame, params, code length, block-start offsets, chunk
# id.  A chunk is simply the concatenated code bytes of its member
# functions: BRISC code is already compressed and interpreted in place,
# so chunking moves bytes without re-encoding them, and ``decode_range``
# is an exact byte slice of what a full ``parse_image`` would see.


def _pack_preamble(out: bytearray, patterns: List[DictPattern],
                   tables: Dict[int, List[int]], globals_: List[GlobalData],
                   entry: str) -> Tuple[int, int, int]:
    """Serialize the preamble v2 payloads and v3 headers share (the exact
    inverse of :func:`_parse_preamble`); returns the bytes taken by the
    dictionary entries, the tables, and the globals and entry."""
    write_uvarint(out, len(patterns))
    start = len(out)
    for pattern in patterns:
        out.extend(serialize_pattern(pattern))
    dict_bytes, start = len(out) - start, len(out)
    write_uvarint(out, len(tables))
    for ctx in sorted(tables):
        write_uvarint(out, zigzag(ctx))
        table = tables[ctx]
        write_uvarint(out, len(table))
        for pid in table:
            write_uvarint(out, pid)
    table_bytes, start = len(out) - start, len(out)
    write_globals(out, globals_)
    write_name(out, entry)
    return dict_bytes, table_bytes, len(out) - start


def repack_v3(
    blob: bytes,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    limits: Optional[ResourceLimits] = None,
) -> bytes:
    """Transcode any BRISC image (v1/v2/v3) into a seekable BRI3 one.

    The function code bytes are moved, never re-encoded, so the chunked
    image decodes to exactly the same program.  Functions are grouped by
    :func:`~repro.container.pack_chunks` under the ``chunk_bytes`` cap,
    sized in code bytes.
    """
    image = parse_image(blob, limits=limits)
    groups = pack_chunks([len(fn.code) for fn in image.functions],
                         chunk_bytes)
    chunk_of = {i: cid for cid, members in enumerate(groups) for i in members}
    header = bytearray()
    _pack_preamble(header, image.patterns, image.tables, image.globals,
                   image.entry)
    write_uvarint(header, len(image.functions))
    for index, fn in enumerate(image.functions):
        _pack_function(header, fn, chunk_of[index])
    chunks = [b"".join(image.functions[i].code for i in members)
              for members in groups]
    return write_container(_MAGIC_V3, header, chunks)


def _open_v3(blob: bytes,
             limits: ResourceLimits) -> Tuple[DecodedImage, ContainerIndex]:
    """Parse a BRI3 header once: the image skeleton (every function with
    empty code) and the block index, whose span lengths are the code
    lengths."""
    header, base = read_header(blob, limits, "BRISC")
    image, nfuncs, pos = _parse_preamble(header, 0, limits)
    table: List[Tuple[str, int, int]] = []
    for _ in range(nfuncs):
        fn, code_len, chunk_id, pos = _read_function(header, pos, limits,
                                                     v3=True)
        image.functions.append(fn)
        table.append((fn.name, chunk_id, code_len))
    return image, read_index("brisc", header, pos, base, limits, table)


def container_index(
    blob: bytes, limits: Optional[ResourceLimits] = None
) -> ContainerIndex:
    """Parse the block index of a BRI3 image (no chunk verification)."""
    limits = limits or DEFAULT_LIMITS
    if _brisc_version(blob) != 3:
        raise UnsupportedFormatError(
            f"{blob[:4]!r} is not a seekable (BRI3) image")
    with decode_guard("BRISC container index"):
        return _open_v3(blob, limits)[1]


def _split_chunk(blob: bytes, image: DecodedImage, index: ContainerIndex,
                 chunk: ChunkRecord) -> List[DecodedFunction]:
    """CRC-check one chunk and hand its code bytes to its member
    functions in place; returns the members."""
    payload = chunk_payload(blob, chunk)
    members = [index.functions[i] for i in chunk.members]
    expected = sum(record.span_length for record in members)
    if expected != chunk.length:
        raise CorruptStreamError(
            f"chunk {chunk.index} holds {chunk.length} bytes, its members "
            f"need {expected}")
    cursor = 0
    for record in members:
        image.functions[record.index].code = \
            payload[cursor:cursor + record.span_length]
        cursor += record.span_length
    return [image.functions[i] for i in chunk.members]


def decode_function(
    blob: bytes, name: str, limits: Optional[ResourceLimits] = None
) -> DecodedFunction:
    """Parse one function by name, touching only its covering chunk.

    On a BRI3 image this verifies the header CRC and the target chunk's
    CRC only, so corruption elsewhere cannot poison the read.  v1/v2
    images fall back to a full parse.  The result is exactly the
    function a full :func:`parse_image` would return.
    """
    limits = limits or DEFAULT_LIMITS
    if _brisc_version(blob) != 3:
        image = parse_image(blob, limits=limits)
        for fn in image.functions:
            if fn.name == name:
                return fn
        raise CorruptStreamError(
            f"image has no function {name!r} "
            f"(have: {[f.name for f in image.functions]})")
    with decode_guard("BRISC image"):
        image, index = _open_v3(blob, limits)
        record = index.function(name)
        _split_chunk(blob, image, index, index.chunks[record.chunk])
        return image.functions[record.index]


def decode_range(
    blob: bytes, start: int, length: int,
    limits: Optional[ResourceLimits] = None,
) -> bytes:
    """Code-address-space bytes ``[start, start+length)``.

    The BRISC decoded address space is the concatenation of every
    function's code bytes in image order; the result is byte-identical
    to slicing that concatenation out of a full :func:`parse_image`, but
    on a BRI3 image only the covering chunks are CRC-checked and read.
    Out-of-range spans clamp like a Python slice; negative arguments
    raise a typed error.
    """
    limits = limits or DEFAULT_LIMITS
    if start < 0 or length < 0:
        raise CorruptStreamError(
            f"invalid range request start={start} length={length}")
    if _brisc_version(blob) != 3:
        whole = b"".join(fn.code
                         for fn in parse_image(blob, limits=limits).functions)
        return whole[start:start + length]
    with decode_guard("BRISC image"):
        image, index = _open_v3(blob, limits)
        return read_span(index, start, length, lambda chunk: [
            fn.code for fn in _split_chunk(blob, image, index, chunk)])
