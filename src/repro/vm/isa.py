"""The RISC virtual machine instruction set (the OmniVM stand-in).

A RISC ISA in the paper's mold: 16 integer registers (``n0``–``n13``,
``sp``, ``ra``), 8 double registers (``f0``–``f7``), load/store with
register-displacement addressing, fused compare-and-branch (including
immediate comparands, as in the paper's ``ble.i n4,0,$L56``), frame macros
``enter``/``exit``/``spill``/``reload``, a block-copy macro, and a
``sys`` escape to the host runtime.

Two of the ISA's conveniences are *feature-flagged* because the paper's
abstract-machine ablation removes them:

* **immediate instructions** — ALU reg-imm forms and branch-with-immediate
  forms (``li`` stays, as the paper keeps load-immediates);
* **register-displacement addressing** — the ``imm(rb)`` forms of
  loads/stores; without them codegen uses the indirect forms ``ldx``/``stx``
  plus explicit address arithmetic.

Every mnemonic has a binary encoding: one opcode byte, register operands
packed two per byte (nibbles), immediates in 1/2/4-byte little-endian
variants selected per-instruction (this variant machinery is itself the
"ad hoc compression" the ablation studies).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Operand", "Signature", "InsnSpec", "ISA", "SPEC", "REG_NAMES",
    "REG_SP", "REG_RA", "NUM_IREGS", "NUM_FREGS", "SYSCALLS",
]

NUM_IREGS = 16
NUM_FREGS = 8
REG_SP = 14
REG_RA = 15
REG_NAMES = [f"n{i}" for i in range(14)] + ["sp", "ra"]
FREG_NAMES = [f"f{i}" for i in range(NUM_FREGS)]


class Operand(enum.Enum):
    """Operand kinds, driving both assembly syntax and binary encoding."""

    REG = "reg"      # integer register (nibble)
    FREG = "freg"    # double register (nibble)
    IMM = "imm"      # integer immediate (1/2/4 bytes by variant)
    DIMM = "dimm"    # double immediate (8 bytes)
    LABEL = "label"  # branch target (2 bytes, code offset)
    SYM = "sym"      # call target (2 bytes, function index)


Signature = Tuple[Operand, ...]


@dataclass(frozen=True)
class InsnSpec:
    """Static description of one mnemonic."""

    name: str
    signature: Signature
    group: str          # "mem", "alu", "alui", "branch", "brimm", "move",
                        # "frame", "macro", "flow", "conv"
    needs_immediates: bool = False     # removed by the "-imm" ablation
    needs_regdisp: bool = False        # removed by the "-regdisp" ablation


_SPECS: List[InsnSpec] = []


def _i(name: str, sig: Signature, group: str, *, imm_feature: bool = False,
       disp_feature: bool = False) -> None:
    _SPECS.append(InsnSpec(name, sig, group, imm_feature, disp_feature))


R, F, I, DI, L, S = (Operand.REG, Operand.FREG, Operand.IMM, Operand.DIMM,
                     Operand.LABEL, Operand.SYM)

# Loads/stores with register-displacement addressing: rd, imm(rb).
for _suffix in ("iw", "ib", "iub", "ih", "iuh"):
    _i(f"ld.{_suffix}", (R, I, R), "mem", disp_feature=True)
for _suffix in ("iw", "ib", "ih"):
    _i(f"st.{_suffix}", (R, I, R), "mem", disp_feature=True)
_i("ld.d", (F, I, R), "mem", disp_feature=True)
_i("st.d", (F, I, R), "mem", disp_feature=True)

# Indirect loads/stores (no displacement) — the de-tuned primitives.
for _suffix in ("iw", "ib", "iub", "ih", "iuh"):
    _i(f"ldx.{_suffix}", (R, R), "mem")
for _suffix in ("iw", "ib", "ih"):
    _i(f"stx.{_suffix}", (R, R), "mem")
_i("ldx.d", (F, R), "mem")
_i("stx.d", (F, R), "mem")

# Frame spill/reload (semantically st/ld from sp, distinct opcodes as in
# the paper's examples).
_i("spill.i", (R, I, R), "frame", disp_feature=True)
_i("reload.i", (R, I, R), "frame", disp_feature=True)

# Moves and immediates.  ``li`` survives every ablation (the paper keeps
# load-immediates as the one primitive).
_i("mov.i", (R, R), "move")
_i("mov.d", (F, F), "move")
_i("li", (R, I), "move")
_i("li.d", (F, DI), "move")
_i("la", (R, S), "move")  # load address of a global/function symbol

# Integer ALU, three-register forms.
for _op in ("add", "sub", "mul", "div", "divu", "rem", "remu",
            "and", "or", "xor", "shl", "shr", "sra"):
    _i(f"{_op}.i", (R, R, R), "alu")
_i("neg.i", (R, R), "alu")
_i("not.i", (R, R), "alu")

# Integer ALU, immediate forms — the "immediate instructions" feature.
for _op in ("add", "sub", "mul", "and", "or", "xor", "shl", "shr", "sra"):
    _i(f"{_op}i.i", (R, R, I), "alui", imm_feature=True)

# Sign/zero extension (for char/short loads already in registers).
_i("sext.b", (R, R), "conv")
_i("zext.b", (R, R), "conv")
_i("sext.h", (R, R), "conv")
_i("zext.h", (R, R), "conv")

# Double ALU and conversions.
for _op in ("add", "sub", "mul", "div"):
    _i(f"{_op}.d", (F, F, F), "alu")
_i("neg.d", (F, F), "alu")
_i("cvt.id", (F, R), "conv")   # int -> double
_i("cvt.ud", (F, R), "conv")   # unsigned -> double
_i("cvt.di", (R, F), "conv")   # double -> int (truncate)
_i("cvt.du", (R, F), "conv")   # double -> unsigned (truncate)

# Fused compare-and-branch, register comparand.
for _cond in ("beq", "bne", "blt", "ble", "bgt", "bge",
              "bltu", "bleu", "bgtu", "bgeu"):
    _i(f"{_cond}.i", (R, R, L), "branch")
# Immediate comparand (the paper's ``ble.i n4,0,$L56``) — feature-flagged.
for _cond in ("beq", "bne", "blt", "ble", "bgt", "bge",
              "bltu", "bleu", "bgtu", "bgeu"):
    _i(f"{_cond}i.i", (R, I, L), "brimm", imm_feature=True)
for _cond in ("beq", "bne", "blt", "ble", "bgt", "bge"):
    _i(f"{_cond}.d", (F, F, L), "branch")

# Control flow.
_i("jmp", (L,), "flow")
_i("call", (S,), "flow")
_i("calli", (R,), "flow")
_i("rjr", (R,), "flow")

# Frame macros (the paper's enter/exit shape: ``enter sp,sp,24``).
_i("enter", (R, R, I), "frame")
_i("exit", (R, R, I), "frame")

# Macro-instructions for blocks of data, and the runtime escape.
_i("blkcpy", (R, R, I), "macro")
_i("sys", (I,), "macro")
_i("hlt", (), "flow")


class ISA:
    """An instruction-set variant: the full machine or a de-tuned one.

    ``immediates=False`` removes ALU-immediate and branch-immediate forms;
    ``regdisp=False`` removes displacement addressing.  The codegen asks
    :meth:`allows` before choosing a form; the encoder sizes are identical
    either way, so compressed/native ratios isolate the feature's effect.
    """

    def __init__(self, immediates: bool = True, regdisp: bool = True,
                 name: Optional[str] = None) -> None:
        self.immediates = immediates
        self.regdisp = regdisp
        if name is None:
            tags = []
            if not immediates:
                tags.append("-imm")
            if not regdisp:
                tags.append("-regdisp")
            name = "RISC" + "".join(tags)
        self.name = name

    def allows(self, spec: InsnSpec) -> bool:
        """Whether this variant's codegen may emit ``spec``."""
        if spec.needs_immediates and not self.immediates:
            return False
        if spec.needs_regdisp and not self.regdisp:
            return False
        return True

    def __repr__(self) -> str:
        return f"ISA({self.name})"


SPEC: Dict[str, InsnSpec] = {spec.name: spec for spec in _SPECS}

# Opcode numbering: the base opcode identifies the mnemonic; the encoder
# adds an immediate-width tag separately (see repro.vm.encode).
OPCODE: Dict[str, int] = {spec.name: i for i, spec in enumerate(_SPECS)}
MNEMONIC: List[str] = [spec.name for spec in _SPECS]

# Runtime services reachable via ``sys``: number -> (name, arg signature,
# return kind).  Arg signature letters: i (int), p (pointer), d (double).
SYSCALLS: Dict[int, Tuple[str, str, str]] = {
    0: ("exit", "i", "v"),
    1: ("putchar", "i", "i"),
    2: ("getchar", "", "i"),
    3: ("malloc", "i", "p"),
    4: ("free", "p", "v"),
    5: ("print_int", "i", "v"),
    6: ("print_str", "p", "v"),
    7: ("print_double", "d", "v"),
    8: ("clock", "", "i"),
    9: ("abort", "", "v"),
}
SYSCALL_BY_NAME: Dict[str, int] = {name: num for num, (name, _, _) in SYSCALLS.items()}
