"""The BRISC cost-benefit metric: B = P − W.

``P`` is the program-size reduction a candidate pattern would buy (bytes
saved across all matching occurrences, minus the bytes the pattern itself
occupies in the transmitted dictionary).

``W`` is the decompressor working-set cost: the paper estimates it "by
averaging the size in bytes of decompression table instruction sequences
for the Pentium and PowerPC 601 chips" — the native template the
interpreter/JIT keeps per dictionary entry.  In abundant-memory mode the
paper sets ``B = P``; the ``abundant_memory`` flag reproduces that.
"""

from __future__ import annotations

from typing import Dict

from ..native.targets import PPCLike, PentiumLike
from ..vm.instr import Instr
from ..vm.isa import Operand, SPEC
from .pattern import Burned, DictPattern, InsnPattern

__all__ = ["CostModel", "representative_instr"]

_REP_IMM = {"n4": 4, "b": 1, "h": 1000, "w": 100000}


def representative_instr(part: InsnPattern) -> Instr:
    """A concrete instruction standing in for a pattern part.

    Burned fields use their burned values; wildcards get representative
    values of their width class, so native template sizes are realistic.
    """
    spec = SPEC[part.name]
    operands = []
    for field, kind in zip(part.fields, spec.signature):
        if isinstance(field, Burned):
            operands.append(field.value)
            continue
        if kind in (Operand.REG, Operand.FREG):
            operands.append(0)
        elif kind is Operand.IMM:
            operands.append(_REP_IMM[field.cls])
        elif kind is Operand.DIMM:
            operands.append(0.0)
        else:
            operands.append("@0")
    return Instr(part.name, tuple(operands))


class CostModel:
    """Computes W for dictionary candidates, priced per part.

    An entry's native sequence is its parts' templates end to end, so W
    sums per-part sizes.  Each distinct part is measured once on both
    targets; the table lives on the instance (one per build), so a later
    build never starts warm.
    """

    def __init__(self, abundant_memory: bool = False) -> None:
        self.abundant_memory = abundant_memory
        self._pentium = PentiumLike()
        self._ppc = PPCLike()
        self._part_bytes: Dict[InsnPattern, int] = {}

    def working_set_cost(self, pattern: DictPattern) -> int:
        """W: average native template bytes for this dictionary entry."""
        if self.abundant_memory:
            return 0
        table = self._part_bytes
        total = 0
        for part in pattern.parts:
            size = table.get(part)
            if size is None:
                rep = representative_instr(part)
                size = (self._pentium.instr_size(rep)
                        + self._ppc.instr_size(rep))
                table[part] = size
            total += size
        return (total + 1) // 2

    def benefit(self, pattern: DictPattern, bytes_saved: int) -> int:
        """B = P − W, where P already includes the dictionary-entry cost."""
        p = bytes_saved - pattern.dictionary_size()
        return p - self.working_set_cost(pattern)
