"""Binary encoding of VM code — the "native VM size" the paper compresses.

Encoding scheme (variable length, byte aligned, little-endian):

* 1 opcode byte, then 1 width byte *only when the instruction carries an
  integer immediate*: 0/1/2 selecting an 8/16/32-bit immediate.  To avoid
  spending that extra byte, the width tag is folded into the opcode byte's
  two top bits — mnemonics fit in 6 bits? They do not (we have ~150), so
  instead the opcode space is widened: each immediate-carrying mnemonic
  claims three consecutive opcodes (imm8/imm16/imm32).  This is exactly the
  paper's observation that RISC "immediate instructions ... amount to
  limited ad hoc code compression".
* register operands: two per byte, packed as nibbles, in signature order
  (integer and double registers share the nibble stream);
* integer immediate: 1/2/4 bytes, signed two's complement;
* double immediate: 8 bytes (IEEE double);
* label: 2 bytes (code byte offset within the function);
* symbol: 2 bytes (global function/data index assigned at link time).

The decoder reverses all of this exactly; ``tests/test_vm_encode.py``
round-trips arbitrary instruction streams.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from .instr import Instr, VMFunction, VMProgram
from .isa import MNEMONIC, Operand, SPEC

__all__ = [
    "encode_instr", "decode_instr", "encode_function", "decode_function",
    "program_size", "encoded_opcodes", "instr_size",
]

# Opcode assignment: walk the mnemonic list; immediate-carrying mnemonics
# take 3 slots (imm widths), others take 1.
_OPCODE_OF: Dict[Tuple[str, int], int] = {}
_DECODE: List[Tuple[str, int]] = []  # opcode -> (mnemonic, width_code)
for _name in MNEMONIC:
    _spec = SPEC[_name]
    if Operand.IMM in _spec.signature:
        for _w in range(3):
            _OPCODE_OF[(_name, _w)] = len(_DECODE)
            _DECODE.append((_name, _w))
    else:
        _OPCODE_OF[(_name, 0)] = len(_DECODE)
        _DECODE.append((_name, 0))
if len(_DECODE) > 256:  # pragma: no cover - static property of the ISA
    raise AssertionError(f"opcode space overflow: {len(_DECODE)}")

_IMM_SIZES = (1, 2, 4)

# Encoded size of each mnemonic apart from its integer immediate (the
# opcode byte, the register nibbles, and the fixed-width payloads), and
# the operand index of the immediate for the mnemonics that carry one.
_PAYLOAD_BYTES = {Operand.DIMM: 8, Operand.LABEL: 2, Operand.SYM: 2}
_FIXED_SIZE: Dict[str, int] = {}
_IMM_INDEX: Dict[str, int] = {}
for _name in MNEMONIC:
    _sig = SPEC[_name].signature
    _regs = sum(1 for _k in _sig if _k in (Operand.REG, Operand.FREG))
    _FIXED_SIZE[_name] = (1 + (_regs + 1) // 2
                          + sum(_PAYLOAD_BYTES.get(_k, 0) for _k in _sig))
    if Operand.IMM in _sig:
        if _sig.count(Operand.IMM) != 1:  # pragma: no cover - static ISA
            raise AssertionError(f"{_name} has more than one immediate")
        _IMM_INDEX[_name] = _sig.index(Operand.IMM)


def _imm_width(value: int) -> int:
    """Width code (0/1/2) of the smallest signed field holding ``value``."""
    if -128 <= value < 128:
        return 0
    if -32768 <= value < 32768:
        return 1
    return 2


def instr_size(instr: Instr) -> int:
    """``len(encode_instr(instr))``, from the size table, without encoding."""
    at = _IMM_INDEX.get(instr.name)
    if at is None:
        return _FIXED_SIZE[instr.name]
    return _FIXED_SIZE[instr.name] + _IMM_SIZES[_imm_width(instr.operands[at])]


def encode_instr(
    instr: Instr,
    label_offsets: Optional[Dict[str, int]] = None,
    symbol_ids: Optional[Dict[str, int]] = None,
) -> bytes:
    """Encode one instruction.

    ``label_offsets`` and ``symbol_ids`` resolve names to numbers; when
    omitted, labels/symbols encode as zero (size-estimation mode).
    """
    spec = instr.spec
    width = 0
    imm_value = 0
    for kind, value in zip(spec.signature, instr.operands):
        if kind is Operand.IMM:
            assert isinstance(value, int)
            imm_value = value
            width = _imm_width(value)
    out = bytearray([_OPCODE_OF[(instr.name, width)]])
    # Pack registers as nibbles.
    nibbles: List[int] = []
    for kind, value in zip(spec.signature, instr.operands):
        if kind in (Operand.REG, Operand.FREG):
            assert isinstance(value, int)
            nibbles.append(value & 0xF)
    for i in range(0, len(nibbles), 2):
        hi = nibbles[i]
        lo = nibbles[i + 1] if i + 1 < len(nibbles) else 0
        out.append((hi << 4) | lo)
    # Non-register payloads in signature order.
    for kind, value in zip(spec.signature, instr.operands):
        if kind is Operand.IMM:
            size = _IMM_SIZES[width]
            out += int(imm_value).to_bytes(size, "little", signed=True)
        elif kind is Operand.DIMM:
            out += struct.pack("<d", float(value))
        elif kind is Operand.LABEL:
            assert isinstance(value, str)
            target = (label_offsets or {}).get(value, 0)
            out += target.to_bytes(2, "little")
        elif kind is Operand.SYM:
            assert isinstance(value, str)
            target = (symbol_ids or {}).get(value, 0)
            out += target.to_bytes(2, "little")
    return bytes(out)


def decode_instr(
    data: bytes,
    pos: int,
    label_names: Optional[Dict[int, str]] = None,
    symbol_names: Optional[Dict[int, str]] = None,
) -> Tuple[Instr, int]:
    """Decode one instruction at ``pos``; returns (instr, new_pos).

    Labels/symbols decode to ``@<offset>`` / ``#<index>`` placeholder names
    unless resolution maps are supplied.
    """
    opcode = data[pos]
    pos += 1
    if opcode >= len(_DECODE):
        raise ValueError(f"invalid opcode {opcode}")
    name, width = _DECODE[opcode]
    spec = SPEC[name]
    nreg = sum(
        1 for k in spec.signature if k in (Operand.REG, Operand.FREG)
    )
    regs: List[int] = []
    for i in range((nreg + 1) // 2):
        byte = data[pos]
        pos += 1
        regs.append(byte >> 4)
        regs.append(byte & 0xF)
    regs = regs[:nreg]
    operands: List[object] = []
    reg_i = 0
    for kind in spec.signature:
        if kind in (Operand.REG, Operand.FREG):
            operands.append(regs[reg_i])
            reg_i += 1
        elif kind is Operand.IMM:
            size = _IMM_SIZES[width]
            operands.append(int.from_bytes(data[pos : pos + size], "little",
                                           signed=True))
            pos += size
        elif kind is Operand.DIMM:
            operands.append(struct.unpack("<d", data[pos : pos + 8])[0])
            pos += 8
        elif kind is Operand.LABEL:
            off = int.from_bytes(data[pos : pos + 2], "little")
            pos += 2
            operands.append((label_names or {}).get(off, f"@{off}"))
        elif kind is Operand.SYM:
            idx = int.from_bytes(data[pos : pos + 2], "little")
            pos += 2
            operands.append((symbol_names or {}).get(idx, f"#{idx}"))
    return Instr(name, tuple(operands)), pos  # type: ignore[arg-type]


def encode_function(
    fn: VMFunction, symbol_ids: Optional[Dict[str, int]] = None
) -> bytes:
    """Encode a function body, resolving its labels to byte offsets.

    Immediate widths cannot change with label values (labels are fixed
    2 bytes), so one sizing pass over the size table places every label,
    and each instruction is then encoded once.
    """
    offsets: Dict[str, int] = {}
    pos = 0
    index_to_offset: List[int] = []
    for instr in fn.code:
        index_to_offset.append(pos)
        pos += instr_size(instr)
    for label, index in fn.labels.items():
        offsets[label] = index_to_offset[index] if index < len(index_to_offset) else pos
    return b"".join([encode_instr(instr, offsets, symbol_ids)
                     for instr in fn.code])


def decode_function(data: bytes, name: str = "fn") -> VMFunction:
    """Decode a function body encoded by :func:`encode_function`.

    Labels come back as ``@<offset>`` names with the label map rebuilt.
    """
    fn = VMFunction(name)
    pos = 0
    offset_to_index: Dict[int, int] = {}
    while pos < len(data):
        offset_to_index[pos] = len(fn.code)
        instr, pos = decode_instr(data, pos)
        fn.code.append(instr)
    # Rebuild labels for every referenced offset.
    for instr in fn.code:
        for kind, value in zip(instr.spec.signature, instr.operands):
            if kind is Operand.LABEL and isinstance(value, str):
                off = int(value[1:])
                if off not in offset_to_index and off != len(data):
                    raise ValueError(f"branch into mid-instruction offset {off}")
                fn.labels.setdefault(
                    value, offset_to_index.get(off, len(fn.code))
                )
    return fn


def encoded_opcodes() -> int:
    """Number of base opcodes in the encoding (the paper reports 224)."""
    return len(_DECODE)


def program_size(program: VMProgram) -> int:
    """Total encoded code size of a program in bytes (code segments only,
    matching the paper's 'we compress only code segments').

    Sizes come from the size table: label and symbol operands are a
    fixed 2 bytes whatever they resolve to, so nothing is encoded.
    """
    return sum(instr_size(instr) for fn in program.functions
               for instr in fn.code)
