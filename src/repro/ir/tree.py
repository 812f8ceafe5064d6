"""IR tree nodes, functions, and modules.

A :class:`Tree` is an operator plus children plus an optional literal
operand (the part the wire compressor splits into per-opcode streams).  A
function body is a *forest*: an ordered list of trees, as in lcc and in the
paper's examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .ops import Op, op

__all__ = ["Tree", "IRFunction", "GlobalData", "ScalarInit", "PtrInit",
           "IRModule", "T"]

Literal = Union[int, float, str, None]


@dataclass(frozen=True)
class Tree:
    """One IR tree node.

    ``value`` is the literal operand (int offset/constant, float constant,
    symbol name, or label name) and must be present exactly when the
    operator declares a literal kind.
    """

    op: Op
    kids: Tuple["Tree", ...] = ()
    value: Literal = None

    def __post_init__(self) -> None:
        if len(self.kids) != self.op.arity:
            raise ValueError(
                f"{self.op.name} takes {self.op.arity} kids, got {len(self.kids)}"
            )
        has = self.value is not None
        needs = self.op.literal != "none"
        if has != needs:
            raise ValueError(
                f"{self.op.name}: literal {'required' if needs else 'forbidden'}"
            )

    def walk(self) -> Iterator["Tree"]:
        """Yield this node and all descendants in prefix order."""
        yield self
        for kid in self.kids:
            yield from kid.walk()

    @property
    def size(self) -> int:
        """Number of nodes in the tree."""
        return sum(1 for _ in self.walk())

    def __str__(self) -> str:
        lit = ""
        if self.op.literal != "none":
            lit = f"[{self.value}]"
        if self.kids:
            inner = ", ".join(str(k) for k in self.kids)
            return f"{self.op.name}{lit}({inner})"
        return f"{self.op.name}{lit}"


def T(name: str, *kids: Tree, value: Literal = None) -> Tree:
    """Shorthand tree constructor: ``T("ADDI", a, b)``."""
    return Tree(op(name), tuple(kids), value)


@dataclass
class IRFunction:
    """A function's IR: its forest plus frame bookkeeping.

    ``param_sizes`` lists each parameter's size in bytes (doubles are 8);
    ``frame_size`` covers all locals and temporaries, addressed by
    ``ADDRLP`` offsets in ``[0, frame_size)``.  ``ADDRFP`` offsets index the
    parameter area in ``[0, sum(param_sizes))``.

    ``wire_streams`` holds the function's label-normalized, patternized
    trees once a journaled build's wire encoder kept them (see
    :func:`repro.wire.encode_module`); it is no part of the function's
    value.
    """

    name: str
    forest: List[Tree] = field(default_factory=list)
    frame_size: int = 0
    param_sizes: List[int] = field(default_factory=list)
    ret_suffix: str = "V"  # I/U/P/D/V — the function's return kind
    wire_streams: Optional[Tuple[List[Tuple], Dict[str, List]]] = field(
        default=None, compare=False, repr=False)

    @property
    def param_bytes(self) -> int:
        return sum(self.param_sizes)

    def node_count(self) -> int:
        """Total IR nodes across the forest."""
        return sum(t.size for t in self.forest)

    def labels(self) -> List[str]:
        """All label names defined in this function, in order."""
        return [t.value for t in self.forest if t.op.name == "LABELV"]  # type: ignore

    def __str__(self) -> str:
        body = "\n".join(f"  {t}" for t in self.forest)
        return f"{self.name}:\n{body}"


@dataclass(frozen=True)
class ScalarInit:
    """Initialize ``size`` bytes at ``offset`` with an integer/float value."""

    offset: int
    size: int
    value: Union[int, float]


@dataclass(frozen=True)
class PtrInit:
    """Initialize a pointer-sized cell at ``offset`` with a symbol address."""

    offset: int
    symbol: str


@dataclass
class GlobalData:
    """A global object: name, size/alignment, and initialization items."""

    name: str
    size: int
    align: int
    items: List[Union[ScalarInit, PtrInit]] = field(default_factory=list)
    is_string: bool = False


@dataclass
class IRModule:
    """A compiled translation unit at the IR level."""

    name: str
    globals: List[GlobalData] = field(default_factory=list)
    functions: List[IRFunction] = field(default_factory=list)

    def function(self, name: str) -> IRFunction:
        """Find a function by name."""
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")

    def node_count(self) -> int:
        """Total IR nodes in the module (a size proxy used in reports)."""
        return sum(fn.node_count() for fn in self.functions)
