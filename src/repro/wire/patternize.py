"""Patternization: split IR trees into operator patterns + literal streams.

The paper's key move: "patternize out all literals, form one stream for all
patterns and one containing the literal operands associated with each
opcode".  A *pattern* is a tree with every literal replaced by a wildcard;
because every operator has fixed arity, a pattern is fully described by its
prefix-order operator sequence.

Literal width flags: the IR "has been augmented with a few operators with
the suffixes 8 and 16 to flag literals that fit in eight or sixteen bits".
We reproduce that by tagging each literal-bearing operator occurrence with
a width class (0=8-bit, 1=16-bit, 2=32-bit, computed over the zigzag
encoding of :mod:`repro.compress.bitio` so negative offsets stay small),
so e.g. ``ADDRLP8`` and ``ADDRLP16`` are distinct pattern symbols with
separately-sized literal streams.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from ..compress.bitio import zigzag
from ..ir.ops import op
from ..ir.tree import IRFunction, Tree

__all__ = [
    "PatternSym", "Pattern", "width_class",
    "patternize_tree", "rebuild_tree", "stream_key", "normalize_labels",
]

# A pattern symbol: (operator name, width class).  Width class is 0/1/2 for
# int literals, and 0 for everything else (non-int literals and plain ops).
PatternSym = Tuple[str, int]
Pattern = Tuple[PatternSym, ...]

LiteralValue = Union[int, float, str]


def width_class(value: int) -> int:
    """0, 1, or 2 — the paper's 8/16(/32) literal width flag."""
    z = zigzag(value)
    if z < 1 << 8:
        return 0
    if z < 1 << 16:
        return 1
    return 2


def stream_key(sym: PatternSym, literal_kind: str) -> str:
    """The literal-stream name for a pattern symbol.

    Streams are per opcode *and* width class (``ADDRLP8``, ``ADDRLP16``…),
    matching the paper's example streams.
    """
    name, width = sym
    if literal_kind == "int":
        return f"{name}{(8, 16, 32)[width]}"
    return name


def patternize_tree(tree: Tree) -> Tuple[Pattern, List[Tuple[str, LiteralValue]]]:
    """Split ``tree`` into its pattern and its literal list.

    Returns ``(pattern, literals)`` where literals are ``(stream, value)``
    pairs in prefix order — the order the decoder re-consumes them.
    """
    symbols: List[PatternSym] = []
    literals: List[Tuple[str, LiteralValue]] = []
    for node in tree.walk():
        kind = node.op.literal
        if kind == "int":
            assert isinstance(node.value, int)
            sym = (node.op.name, width_class(node.value))
            symbols.append(sym)
            literals.append((stream_key(sym, kind), node.value))
        elif kind == "none":
            symbols.append((node.op.name, 0))
        else:
            assert node.value is not None
            sym = (node.op.name, 0)
            symbols.append(sym)
            literals.append((stream_key(sym, kind), node.value))
    return tuple(symbols), literals


class _LiteralSource:
    """Pulls literals back out of per-stream queues during rebuild."""

    def __init__(self, streams: Dict[str, List[LiteralValue]]) -> None:
        self._streams = streams
        self._pos: Dict[str, int] = {key: 0 for key in streams}

    def take(self, key: str) -> LiteralValue:
        pos = self._pos.get(key, 0)
        stream = self._streams.get(key)
        if stream is None or pos >= len(stream):
            raise ValueError(f"literal stream {key!r} exhausted")
        self._pos[key] = pos + 1
        return stream[pos]


def rebuild_tree(pattern: Pattern, literals: _LiteralSource) -> Tree:
    """Reconstruct a tree from its pattern, pulling literals from streams."""
    pos = 0

    def build() -> Tree:
        nonlocal pos
        if pos >= len(pattern):
            raise ValueError("pattern exhausted mid-tree")
        name, width = pattern[pos]
        pos += 1
        operator = op(name)
        value: LiteralValue = None  # type: ignore[assignment]
        if operator.literal != "none":
            value = literals.take(stream_key((name, width), operator.literal))
        kids = tuple(build() for _ in range(operator.arity))
        if operator.literal == "none":
            return Tree(operator, kids)
        return Tree(operator, kids, value)

    tree = build()
    if pos != len(pattern):
        raise ValueError("pattern has trailing symbols")
    return tree


def normalize_labels(fn: IRFunction) -> IRFunction:
    """Rename labels to dense indices ("0", "1", …) in first-use order.

    Label identity is internal, so the wire format transmits labels as
    small integers; normalizing before encoding makes the round trip exact.
    """
    mapping: Dict[str, str] = {}

    def rename(label: str) -> str:
        if label not in mapping:
            mapping[label] = str(len(mapping))
        return mapping[label]

    def rewrite(tree: Tree) -> Tree:
        kids = tuple(rewrite(k) for k in tree.kids)
        if tree.op.literal == "label":
            assert isinstance(tree.value, str)
            return Tree(tree.op, kids, rename(tree.value))
        if kids != tree.kids:
            return Tree(tree.op, kids, tree.value)
        return tree

    out = IRFunction(
        name=fn.name,
        forest=[rewrite(t) for t in fn.forest],
        frame_size=fn.frame_size,
        param_sizes=list(fn.param_sizes),
        ret_suffix=fn.ret_suffix,
    )
    return out
