"""The lcc-style tree IR operator set.

Operators follow lcc's naming: a base mnemonic plus a one-letter type
suffix — ``I`` int32, ``U`` uint32, ``P`` pointer, ``C`` char, ``S`` short,
``D`` double, ``V`` void, ``B`` block (struct copies).  Examples from the
paper: ``ASGNI``, ``INDIRI``, ``ADDRLP``, ``CNSTC``, ``LEI``, ``ARGI``,
``CALLI``, ``RETI``, ``LABELV``.

Each operator declares its arity and what kind of literal operand it
carries (``none``, ``int``, ``float``, ``sym``, ``label``).  The wire
compressor patternizes exactly those literals out of the trees; the 8/16
bit "fits" flags the paper mentions are computed at wire-encoding time from
the literal's value (see :mod:`repro.wire.patternize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Op", "OPS", "op"]


@dataclass(frozen=True)
class Op:
    """A tree operator: name, arity, and literal kind."""

    name: str
    arity: int
    literal: str  # "none" | "int" | "float" | "sym" | "label"
    opcode: int  # dense id, stable across runs (ordered registration)

    def __str__(self) -> str:
        return self.name

    @property
    def is_branch(self) -> bool:
        """True for compare-and-branch operators (EQ/NE/LT/LE/GT/GE)."""
        return self.name[:2] in ("EQ", "NE", "LT", "LE", "GT", "GE")


OPS: Dict[str, Op] = {}


def _def(name: str, arity: int, literal: str = "none") -> None:
    OPS[name] = Op(name, arity, literal, len(OPS))


# Constants ---------------------------------------------------------------
for _t in "CSIUP":
    _def(f"CNST{_t}", 0, "int")
_def("CNSTD", 0, "float")

# Addresses ---------------------------------------------------------------
_def("ADDRGP", 0, "sym")    # global / function / string label
_def("ADDRFP", 0, "int")    # parameter, literal = byte offset
_def("ADDRLP", 0, "int")    # local, literal = byte offset

# Memory ------------------------------------------------------------------
for _t in "CSIUPD":
    _def(f"INDIR{_t}", 1)
for _t in "CSIUPD":
    _def(f"ASGN{_t}", 2)
_def("ASGNB", 2, "int")     # struct copy, literal = size in bytes

# Conversions -------------------------------------------------------------
for _name in (
    "CVCI",   # sign-extend char -> int
    "CVUCI",  # zero-extend uchar -> int
    "CVSI",   # sign-extend short -> int
    "CVUSI",  # zero-extend ushort -> int
    "CVIC",   # truncate int -> char
    "CVIS",   # truncate int -> short
    "CVIU",   # reinterpret int -> unsigned
    "CVUI",   # reinterpret unsigned -> int
    "CVID",   # int -> double
    "CVDI",   # double -> int (truncate)
    "CVUD",   # unsigned -> double
    "CVDU",   # double -> unsigned
    "CVPU",   # pointer -> unsigned
    "CVUP",   # unsigned -> pointer
):
    _def(_name, 1)

# Arithmetic --------------------------------------------------------------
for _t in "IUD":
    _def(f"ADD{_t}", 2)
    _def(f"SUB{_t}", 2)
    _def(f"MUL{_t}", 2)
    _def(f"DIV{_t}", 2)
_def("ADDP", 2)             # pointer + int
_def("SUBP", 2)             # pointer - int
for _t in "IU":
    _def(f"MOD{_t}", 2)
    _def(f"LSH{_t}", 2)
    _def(f"RSH{_t}", 2)
for _t in "ID":
    _def(f"NEG{_t}", 1)
for _t in "IU":
    _def(f"BAND{_t}", 2)
    _def(f"BOR{_t}", 2)
    _def(f"BXOR{_t}", 2)
    _def(f"BCOM{_t}", 1)

# Compare-and-branch ------------------------------------------------------
for _cmp in ("EQ", "NE", "LT", "LE", "GT", "GE"):
    for _t in "IUD":
        _def(f"{_cmp}{_t}", 2, "label")

# Control flow ------------------------------------------------------------
_def("LABELV", 0, "label")
_def("JUMPV", 0, "label")

# Calls -------------------------------------------------------------------
for _t in "IUPD":
    _def(f"ARG{_t}", 1)
for _t in "IUPDV":
    _def(f"CALL{_t}", 1)
for _t in "IUPD":
    _def(f"RET{_t}", 1)
_def("RETV", 0)


def op(name: str) -> Op:
    """Look up an operator by name, raising KeyError with context."""
    try:
        return OPS[name]
    except KeyError:
        raise KeyError(f"unknown IR operator {name!r}") from None
