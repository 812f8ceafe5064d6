"""BRISC instruction patterns.

A *pattern* is a VM instruction shape with some fields burned in (operand
specialization) and possibly several instructions fused (opcode
combination).  The paper's notation::

    [ld.iw *,4(sp)]          one-part pattern, two burned fields
    <[mov.i nl,n4],[mov.i nO,n2]>   two-part combined pattern

Field widths: unspecified (wildcard) fields are packed into the operand
byte stream — registers as nibbles, immediates in one of four classes
(``n4``: a nibble scaled by 4, the paper's ``-x4`` suffix; ``b``/``h``/``w``:
1/2/4 bytes), labels and symbols as 2 bytes, double immediates as 8 bytes.
A pattern fixes the width class of each wildcard, so the byte length of an
encoded instruction is fully determined by its opcode — the property that
keeps BRISC randomly addressable and directly interpretable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from ..compress.bitio import (
    DOUBLE, literal_key, read_name, read_uvarint, take_bytes, unzigzag,
    uvarint, write_name, write_uvarint, zigzag,
)
from ..errors import CorruptStreamError, TruncatedStreamError
from ..vm.instr import Instr
from ..vm.isa import MNEMONIC, NUM_FREGS, NUM_IREGS, Operand, SPEC

__all__ = [
    "Field", "Wildcard", "Burned", "InsnPattern", "DictPattern",
    "pattern_of_instr", "imm_class",
]

# Wildcard width classes and their encoded sizes.
_NIBBLE_CLASSES = {"r", "f", "n4"}
_BYTE_SIZES = {"b": 1, "h": 2, "w": 4, "l": 2, "s": 2, "d": 8}

FieldValue = Union[int, float, str]


def imm_class(value: int) -> str:
    """Smallest width class holding an integer immediate."""
    if value % 4 == 0 and 0 <= value < 64:
        return "n4"
    if -128 <= value < 128:
        return "b"
    if -32768 <= value < 32768:
        return "h"
    return "w"


@dataclass(frozen=True)
class Wildcard:
    """An unspecified field: carried in the operand bytes.

    ``cls`` is one of r/f/n4/b/h/w/l/s/d.
    """

    cls: str

    def __str__(self) -> str:
        return "*" if self.cls in ("r", "f") else f"*{self.cls}"


@dataclass(frozen=True)
class Burned:
    """A specialized field: its value lives in the dictionary entry.

    Two burned fields are equal, and hash alike, when their values'
    :func:`~repro.compress.bitio.literal_key` is.
    """

    value: FieldValue

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Burned:
            return NotImplemented
        return literal_key(self.value) == literal_key(other.value)

    def __hash__(self) -> int:
        return hash(literal_key(self.value))

    def __str__(self) -> str:
        return str(self.value)


Field = Union[Wildcard, Burned]


def _field_kind(kind: Operand, value: FieldValue) -> str:
    if kind is Operand.REG:
        return "r"
    if kind is Operand.FREG:
        return "f"
    if kind is Operand.IMM:
        assert isinstance(value, int)
        return imm_class(value)
    if kind is Operand.LABEL:
        return "l"
    if kind is Operand.SYM:
        return "s"
    return "d"


@dataclass(frozen=True)
class InsnPattern:
    """One instruction's pattern: mnemonic + per-field spec."""

    name: str
    fields: Tuple[Field, ...]

    # The generated dataclass __hash__ re-hashes the whole field tree on
    # every dict/set lookup; the greedy builder performs millions of such
    # lookups against long-lived pattern instances, so memoize per
    # instance.  The cache never crosses process boundaries (see
    # __getstate__): str hashes are salted per interpreter.
    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.name, self.fields))
            self.__dict__["_hash"] = h
        return h

    def __getstate__(self) -> dict:
        return {"name": self.name, "fields": self.fields}

    def serialized_size(self) -> int:
        """Bytes this part occupies in a serialized dictionary entry,
        measured with :func:`serialize_pattern`'s own part writer.

        Memoized per instance like the hash: the builder prices many
        candidates that share their part objects.
        """
        size = self.__dict__.get("_serialized_size")
        if size is None:
            out = bytearray()
            _write_part(out, self)
            size = len(out)
            self.__dict__["_serialized_size"] = size
        return size

    def matches(self, instr: Instr) -> bool:
        """Does ``instr`` fit this pattern (burned fields equal, wildcards
        wide enough)?"""
        if instr.name != self.name:
            return False
        spec = SPEC[self.name]
        for field, kind, value in zip(self.fields, spec.signature, instr.operands):
            if isinstance(field, Burned):
                if literal_key(field.value) != literal_key(value):
                    return False
            else:
                if kind is Operand.IMM:
                    assert isinstance(value, int)
                    if not _class_holds(field.cls, value):
                        return False
        return True

    def wildcard_values(self, instr: Instr) -> List[Tuple[str, FieldValue]]:
        """The (class, value) pairs an encoder must emit for ``instr``."""
        out: List[Tuple[str, FieldValue]] = []
        for field, value in zip(self.fields, instr.operands):
            if isinstance(field, Wildcard):
                out.append((field.cls, value))
        return out

    def specializations(self, instr: Instr) -> List["InsnPattern"]:
        """All one-more-field-burned versions of this pattern w.r.t. the
        concrete instruction (the paper specializes one field at a time).

        Label fields stay wildcards: the decoder regenerates labels from
        code offsets, so a burned label would name nothing."""
        out: List[InsnPattern] = []
        kinds = SPEC[self.name].signature
        for i, field in enumerate(self.fields):
            if isinstance(field, Wildcard) and kinds[i] is not Operand.LABEL:
                new_fields = list(self.fields)
                new_fields[i] = Burned(instr.operands[i])
                out.append(InsnPattern(self.name, tuple(new_fields)))
        return out

    def __str__(self) -> str:
        from ..vm.isa import FREG_NAMES, REG_NAMES

        spec = SPEC[self.name]
        parts = []
        for field, kind in zip(self.fields, spec.signature):
            if isinstance(field, Burned) and kind is Operand.REG:
                parts.append(REG_NAMES[int(field.value)])
            elif isinstance(field, Burned) and kind is Operand.FREG:
                parts.append(FREG_NAMES[int(field.value)])
            else:
                parts.append(str(field))
        inner = ",".join(parts)
        return f"[{self.name} {inner}]" if inner else f"[{self.name}]"


def _class_holds(cls: str, value: int) -> bool:
    if cls == "n4":
        return value % 4 == 0 and 0 <= value < 64
    if cls == "b":
        return -128 <= value < 128
    if cls == "h":
        return -32768 <= value < 32768
    return True


def pattern_of_instr(instr: Instr) -> InsnPattern:
    """The all-wildcard base pattern of a concrete instruction."""
    spec = SPEC[instr.name]
    fields = tuple(
        Wildcard(_field_kind(kind, value))
        for kind, value in zip(spec.signature, instr.operands)
    )
    return InsnPattern(instr.name, fields)


# Value-keyed caches shared by every DictPattern instance, so equal
# patterns built apart share one entry.  Keys are the (frozen, hashable)
# patterns themselves; both caches are process-lifetime, bounded by the
# number of distinct patterns seen.
_ENCODED_SIZE_CACHE: dict = {}
_DICT_SIZE_CACHE: dict = {}


@dataclass(frozen=True)
class DictPattern:
    """A dictionary entry: one or more (possibly specialized) parts.

    Control-transfer instructions may appear only in the final part, so a
    taken branch never leaves a half-executed pattern and return addresses
    always point at pattern boundaries.
    """

    parts: Tuple[InsnPattern, ...]

    # Same per-instance hash memoization as InsnPattern: every slot's
    # pattern is looked up in the size caches and the Markov model's
    # pattern ids.
    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.parts,))
            self.__dict__["_hash"] = h
        return h

    def __getstate__(self) -> dict:
        return {"parts": self.parts}

    def matches(self, insns: Sequence[Instr]) -> bool:
        """Does the concrete instruction sequence fit this pattern?"""
        if len(insns) != len(self.parts):
            return False
        return all(p.matches(i) for p, i in zip(self.parts, insns))

    def operand_layout(self) -> Tuple[int, List[str], int]:
        """Encoded operand size in bytes, the flat wildcard class list and
        the number of nibble-packed operands among them.

        Cached per instance (the pattern is frozen, so the layout never
        changes); callers must not mutate the returned class list.
        """
        cached = self.__dict__.get("_layout")
        if cached is None:
            classes = [
                f.cls
                for part in self.parts
                for f in part.fields
                if isinstance(f, Wildcard)
            ]
            nibbles = sum(1 for c in classes if c in _NIBBLE_CLASSES)
            whole = sum(
                _BYTE_SIZES[c] for c in classes if c not in _NIBBLE_CLASSES)
            cached = ((nibbles + 1) // 2 + whole, classes, nibbles)
            self.__dict__["_layout"] = cached
        return cached

    def operand_bytes(self) -> int:
        """Encoded operand size in bytes."""
        return self.operand_layout()[0]

    def encoded_size(self) -> int:
        """Size of one occurrence: opcode byte + operand bytes.

        Value-cached across instances (``_ENCODED_SIZE_CACHE``).
        """
        size = _ENCODED_SIZE_CACHE.get(self)
        if size is None:
            size = 1 + self.operand_layout()[0]
            _ENCODED_SIZE_CACHE[self] = size
        return size

    def wildcard_values(self, insns: Sequence[Instr]) -> List[Tuple[str, FieldValue]]:
        out: List[Tuple[str, FieldValue]] = []
        for part, instr in zip(self.parts, insns):
            out.extend(part.wildcard_values(instr))
        return out

    def is_control_ok(self) -> bool:
        """Control transfers only in the final part."""
        for part in self.parts[:-1]:
            if SPEC[part.name].group == "flow" or SPEC[part.name].group in (
                "branch", "brimm"
            ) or part.name == "sys":
                return False
        return True

    def dictionary_size(self) -> int:
        """Bytes this entry occupies in the transmitted dictionary.

        Value-cached like :meth:`encoded_size`.  A miss does not serialize
        the entry: its bytes are the part count's uvarint followed by each
        part's bytes, so the size is that uvarint's length plus the
        parts' memoized :meth:`InsnPattern.serialized_size`.
        """
        size = _DICT_SIZE_CACHE.get(self)
        if size is None:
            parts = self.parts
            size = len(uvarint(len(parts)))
            for part in parts:
                size += part.serialized_size()
            _DICT_SIZE_CACHE[self] = size
        return size

    def __str__(self) -> str:
        if len(self.parts) == 1:
            return str(self.parts[0])
        return "<" + ",".join(str(p) for p in self.parts) + ">"


# ---------------------------------------------------------------------------
# Dictionary serialization
# ---------------------------------------------------------------------------

_MNEMONIC_ID = {name: i for i, name in enumerate(MNEMONIC)}
_CLS_ID = {c: i for i, c in enumerate(("r", "f", "n4", "b", "h", "w", "l", "s", "d"))}
_CLS_BY_ID = {i: c for c, i in _CLS_ID.items()}
# What the encoder writes for each operand kind: the wildcard classes
# that can carry it, the tag of a burned value, and for registers the
# size of the register file.  Labels are never burned (the decoder
# regenerates them from code offsets, so a burned label names nothing).
_KIND_CLASSES = {
    Operand.REG: {"r"}, Operand.FREG: {"f"}, Operand.IMM: {"n4", "b", "h", "w"},
    Operand.LABEL: {"l"}, Operand.SYM: {"s"}, Operand.DIMM: {"d"},
}
_BURNED_TAG = {Operand.REG: 0x00, Operand.FREG: 0x00, Operand.IMM: 0x01,
               Operand.DIMM: 0x02, Operand.SYM: 0x03}
_REGISTERS = {Operand.REG: NUM_IREGS, Operand.FREG: NUM_FREGS}
_IMM_LIMIT = 1 << 31  # immediates are signed 32-bit (class ``w``)


def serialize_pattern(pattern: DictPattern) -> bytes:
    """Serialize a dictionary entry.

    Layout: part count; per part: mnemonic id, then per field a tag byte
    (0x80 | class for wildcards, class for burned) followed by the burned
    value when present.
    """
    out = bytearray()
    write_uvarint(out, len(pattern.parts))
    for part in pattern.parts:
        _write_part(out, part)
    return bytes(out)


def _write_part(out: bytearray, part: InsnPattern) -> None:
    """Append one part's serialized bytes (see :func:`serialize_pattern`)."""
    write_uvarint(out, _MNEMONIC_ID[part.name])
    spec = SPEC[part.name]
    for field, kind in zip(part.fields, spec.signature):
        if isinstance(field, Wildcard):
            out.append(0x80 | _CLS_ID[field.cls])
            continue
        value = field.value
        if kind in (Operand.REG, Operand.FREG):
            out.append(0x00)
            out.append(int(value) & 0xF)
        elif kind is Operand.IMM:
            out.append(0x01)
            write_uvarint(out, zigzag(int(value)))
        elif kind is Operand.DIMM:
            out.append(0x02)
            out += DOUBLE.pack(float(value))
        else:  # SYM burned as a string
            out.append(0x03)
            write_name(out, str(value))


#: What a field tag reads as, by operand kind and then tag byte: the one
#: shared wildcard of each class that can carry the kind (no class
#: carries two kinds), or, for the tag of a burned value, the tag itself
#: (the value follows it).  A tag not listed is one no encoder writes
#: for that kind.
_FIELD_TAGS = {kind: {0x80 | _CLS_ID[cls]: Wildcard(cls) for cls in classes}
               for kind, classes in _KIND_CLASSES.items()}
for _kind, _tag in _BURNED_TAG.items():
    _FIELD_TAGS[_kind][_tag] = _tag
#: Per mnemonic id: its name and, per operand, its kind and tag table.
_PART_READERS = [
    (name, tuple((kind, _FIELD_TAGS[kind]) for kind in SPEC[name].signature))
    for name in MNEMONIC
]


def _tag_error(tag: int, kind: Operand, name: str) -> CorruptStreamError:
    """The error for a field tag no encoder writes for ``kind``."""
    if tag & 0x80:
        cls = _CLS_BY_ID.get(tag & 0x7F)
        if cls is None:
            return CorruptStreamError(
                f"unknown wildcard class id {tag & 0x7F}")
        return CorruptStreamError(
            f"wildcard class {cls!r} cannot carry a {kind.value} "
            f"operand of {name}")
    return CorruptStreamError(
        f"field tag {tag:#x} cannot carry a {kind.value} operand of {name}")


def deserialize_pattern(data: bytes, pos: int) -> Tuple[DictPattern, int]:
    """Inverse of :func:`serialize_pattern`; returns (pattern, new_pos).

    Every field is bounds-checked: a forged mnemonic id, wildcard class,
    tag byte, or string length raises a typed :class:`DecodeError` instead
    of an ``IndexError``/``KeyError`` or a silently short slice.  So is
    every form no encoder writes: a wildcard class or burned tag that
    does not fit the field's operand kind, a burned label, a burned
    register outside its register file, or a burned immediate wider than
    32 bits.  Wildcard fields are the shared objects of ``_FIELD_TAGS``.
    """
    nparts, pos = read_uvarint(data, pos)
    end = len(data)
    if nparts < 1 or nparts > end - pos:
        raise CorruptStreamError(f"pattern with impossible part count {nparts}")
    parts: List[InsnPattern] = []
    for _ in range(nparts):
        mid, pos = read_uvarint(data, pos)
        if mid >= len(MNEMONIC):
            raise CorruptStreamError(f"unknown mnemonic id {mid}")
        name, readers = _PART_READERS[mid]
        fields: List[Field] = []
        for kind, tags in readers:
            if pos >= end:
                raise TruncatedStreamError("data ends before field tag")
            tag = data[pos]
            pos += 1
            field = tags.get(tag)
            if field.__class__ is Wildcard:
                fields.append(field)
            elif field is None:
                raise _tag_error(tag, kind, name)
            elif tag == 0x00:
                raw, pos = take_bytes(data, pos, 1, "burned register")
                if raw[0] >= _REGISTERS[kind]:
                    raise CorruptStreamError(
                        f"burned {kind.value} {raw[0]} of {_REGISTERS[kind]} "
                        f"in {name}")
                fields.append(Burned(raw[0]))
            elif tag == 0x01:
                z, pos = read_uvarint(data, pos)
                value = unzigzag(z)
                if not -_IMM_LIMIT <= value < _IMM_LIMIT:
                    raise CorruptStreamError(
                        f"burned immediate {value} wider than 32 bits "
                        f"in {name}")
                fields.append(Burned(value))
            elif tag == 0x02:
                raw, pos = take_bytes(data, pos, 8, "burned double")
                fields.append(Burned(DOUBLE.unpack(raw)[0]))
            else:
                symbol, pos = read_name(data, pos, "burned string")
                fields.append(Burned(symbol))
        parts.append(InsnPattern(name, tuple(fields)))
    return DictPattern(tuple(parts)), pos
