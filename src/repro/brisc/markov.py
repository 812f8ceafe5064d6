"""Order-1 semi-static Markov model over BRISC opcodes.

"To perform dictionary encoding, the compressor uses an order-1 semi-static
Markov model so that all opcodes fit within 8 bits": each instruction
pattern I gets a table of the patterns that can follow it; the encoded
opcode of an instruction is its index in its *predecessor's* table.  "If
more than 256 instructions can follow I, the compressor splits I into two
instruction patterns."  "There is a special context in the Markov model for
basic block beginnings (of various types) so that the BRISC program remains
interpretable" — we use two special contexts: function entry and branch
target (any labelled block start).

Tables hold at most 255 entries; byte 0xFF escapes to an explicit 2-byte
pattern id (only ever needed in the special contexts, where splitting is
not possible).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .pattern import DictPattern
from .slots import SlotFunction, SlotProgram

__all__ = ["CTX_ENTRY", "CTX_BB", "MarkovModel", "build_markov",
           "context_stream"]

CTX_ENTRY = -1
CTX_BB = -2
ESCAPE = 0xFF
_TABLE_LIMIT = 255


@dataclass
class MarkovModel:
    """Pattern ids, per-context successor tables, and split bookkeeping."""

    patterns: List[DictPattern] = field(default_factory=list)
    # context key (pattern id, CTX_ENTRY, or CTX_BB) -> ordered pattern ids.
    tables: Dict[int, List[int]] = field(default_factory=dict)
    splits: int = 0
    # pattern -> canonical id (first-use order, assigned during build).
    # Split clones alias an existing pattern, so a cloned pattern maps to
    # its original (pre-split) id.
    ids: Dict[DictPattern, int] = field(default_factory=dict)

    def pattern_id(self, pattern: DictPattern) -> int:
        """The canonical id assigned to ``pattern`` during build.

        Raises ``KeyError`` for a pattern the model has never seen.
        """
        return self.ids[pattern]

    def index_of(self, ctx: int, pid: int) -> Optional[int]:
        """Index of ``pid`` in the context table (None when absent).

        Backed by a per-context reverse map (pid -> first index) so the
        encode hot path pays O(1) per lookup instead of an O(n)
        ``list.index`` scan; the map is rebuilt transparently if the
        table is replaced or grows.
        """
        table = self.tables.get(ctx)
        if table is None:
            return None
        rindex = self.__dict__.setdefault("_rindex", {})
        cached = rindex.get(ctx)
        if cached is None or cached[0] is not table or cached[1] != len(table):
            reverse: Dict[int, int] = {}
            for i, entry in enumerate(table):
                reverse.setdefault(entry, i)
            cached = (table, len(table), reverse)
            rindex[ctx] = cached
        return cached[2].get(pid)

    def table_sizes(self) -> Dict[int, int]:
        return {ctx: len(t) for ctx, t in self.tables.items()}

    def max_successors(self) -> int:
        """Largest successor table (paper: at most 244 for lcc)."""
        return max((len(t) for t in self.tables.values()), default=0)

    def serialized_size(self) -> int:
        """Bytes the tables occupy in the image (2 per entry + headers)."""
        return sum(4 + 2 * len(table) for table in self.tables.values())


def context_stream(fn: SlotFunction, ids: List[int]) -> List[Tuple[int, int]]:
    """(context, pattern_id) pairs for a function's slots: the encoder's
    side of the context rule (the image reader's is
    :func:`repro.brisc.encode.slot_context`)."""
    out: List[Tuple[int, int]] = []
    prev: Optional[int] = None
    for i, slot in enumerate(fn.slots):
        if i == 0:
            ctx = CTX_ENTRY
        elif slot.is_block_start:
            ctx = CTX_BB
        else:
            assert prev is not None
            ctx = prev
        pid = ids[i]
        out.append((ctx, pid))
        prev = pid
    return out


def build_markov(slots: SlotProgram) -> Tuple[MarkovModel, Dict[int, List[int]]]:
    """Assign pattern ids and build successor tables, splitting contexts
    whose successor sets exceed the table limit.

    Returns ``(model, per-function id lists)`` where the id lists reflect
    any splits (cloned pattern ids).
    """
    # Assign ids to the distinct patterns in slot order of first use.
    patterns: List[DictPattern] = []
    id_of: Dict[DictPattern, int] = {}
    fn_ids: Dict[int, List[int]] = {}
    for fi, fn in enumerate(slots.functions):
        ids: List[int] = []
        for slot in fn.slots:
            pid = id_of.get(slot.pattern)
            if pid is None:
                pid = len(patterns)
                id_of[slot.pattern] = pid
                patterns.append(slot.pattern)
            ids.append(pid)
        fn_ids[fi] = ids

    model = MarkovModel(patterns=patterns, ids=dict(id_of))

    # Iteratively build tables and split over-full pattern contexts.
    for _round in range(64):
        succ: Dict[int, Counter] = {}
        for fi, fn in enumerate(slots.functions):
            for ctx, pid in context_stream(fn, fn_ids[fi]):
                succ.setdefault(ctx, Counter())[pid] += 1
        overfull = [
            ctx for ctx, counter in succ.items()
            if ctx >= 0 and len(counter) > _TABLE_LIMIT
        ]
        if not overfull:
            model.tables = {
                ctx: [pid for pid, _ in counter.most_common()]
                for ctx, counter in succ.items()
            }
            return model, fn_ids
        # Split the worst offender: occurrences of pattern `ctx` followed
        # by a rare successor are relabelled to a clone id.
        ctx = max(overfull, key=lambda c: len(succ[c]))
        keep = {pid for pid, _ in succ[ctx].most_common(_TABLE_LIMIT)}
        clone_id = len(model.patterns)
        model.patterns.append(model.patterns[ctx])
        model.splits += 1
        for fi, fn in enumerate(slots.functions):
            ids = fn_ids[fi]
            for i in range(len(ids) - 1):
                nxt_slot = fn.slots[i + 1]
                if ids[i] == ctx and not nxt_slot.is_block_start \
                        and ids[i + 1] not in keep:
                    ids[i] = clone_id
    raise RuntimeError("Markov context splitting did not converge")
