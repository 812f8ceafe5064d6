"""VM instructions, functions, and linked programs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..ir.tree import GlobalData
from .isa import Operand, SPEC, InsnSpec

__all__ = ["Instr", "VMFunction", "VMProgram"]

OperandValue = Union[int, float, str]

#: Per operand kind: the Python types its values may have, and how a
#: rejection names them.
_KIND_TYPES = {
    Operand.REG: (int, "int"), Operand.FREG: (int, "int"),
    Operand.IMM: (int, "int"), Operand.DIMM: ((int, float), "a number"),
    Operand.LABEL: (str, "str"), Operand.SYM: (str, "str"),
}
#: Per mnemonic, the accepted types of each operand, in order.
_ACCEPTS = {name: tuple(_KIND_TYPES[kind][0] for kind in spec.signature)
            for name, spec in SPEC.items()}


@dataclass(frozen=True)
class Instr:
    """One VM instruction: mnemonic plus operand values.

    Operand values follow the mnemonic's signature: ints for registers and
    immediates, floats for double immediates, strings for labels and
    symbols.
    """

    name: str
    operands: Tuple[OperandValue, ...] = ()

    def __post_init__(self) -> None:
        accepts = _ACCEPTS[self.name]  # raises KeyError for unknown mnemonics
        if (len(self.operands) != len(accepts)
                or not all(map(isinstance, self.operands, accepts))):
            self._reject()

    def _reject(self) -> None:
        """Raise the ``ValueError`` naming the first operand mismatch."""
        spec = self.spec
        if len(self.operands) != len(spec.signature):
            raise ValueError(
                f"{self.name} takes {len(spec.signature)} operands, "
                f"got {len(self.operands)}"
            )
        for kind, value in zip(spec.signature, self.operands):
            types, noun = _KIND_TYPES[kind]
            if not isinstance(value, types):
                raise ValueError(
                    f"{self.name}: {kind.value} operand must be {noun}")

    @property
    def spec(self) -> InsnSpec:
        return SPEC[self.name]

    def __str__(self) -> str:
        from .asm import format_instr  # local import to avoid a cycle

        return format_instr(self)


@dataclass
class VMFunction:
    """A function's instruction list plus its label map.

    ``labels`` maps label name -> instruction index within ``code``.
    ``code_bytes`` holds the function's base encoding, with the symbol
    names it was encoded against, once a journaled build kept it (see
    :func:`repro.pipeline.vm_code_bytes`); it is no part of the
    function's value.
    """

    name: str
    code: List[Instr] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    frame_size: int = 0
    param_bytes: int = 0
    code_bytes: Optional[Tuple[Tuple[str, ...], bytes]] = field(
        default=None, compare=False, repr=False)

    def define_label(self, label: str) -> None:
        """Attach ``label`` to the next emitted instruction."""
        if label in self.labels:
            raise ValueError(f"duplicate label {label!r} in {self.name}")
        self.labels[label] = len(self.code)

    def emit(self, instr: Instr) -> None:
        self.code.append(instr)

    def __len__(self) -> int:
        return len(self.code)


@dataclass
class VMProgram:
    """A linked program: functions, global data, and an entry point."""

    name: str
    functions: List[VMFunction] = field(default_factory=list)
    globals: List[GlobalData] = field(default_factory=list)
    entry: str = "main"

    def function(self, name: str) -> VMFunction:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")

    def function_index(self, name: str) -> int:
        for i, fn in enumerate(self.functions):
            if fn.name == name:
                return i
        raise KeyError(f"no function named {name!r}")

    def instruction_count(self) -> int:
        return sum(len(fn.code) for fn in self.functions)
