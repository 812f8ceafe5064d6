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
    """Pattern ids, per-context successor tables, and split bookkeeping.

    ``patterns[pid]`` is the pattern with id ``pid``: ids are assigned in
    first-use order, and a split clone's id holds its original pattern.
    """

    patterns: List[DictPattern] = field(default_factory=list)
    # context key (pattern id, CTX_ENTRY, or CTX_BB) -> ordered pattern ids.
    tables: Dict[int, List[int]] = field(default_factory=dict)
    splits: int = 0

    def max_successors(self) -> int:
        """Largest successor table (paper: at most 244 for lcc)."""
        return max((len(t) for t in self.tables.values()), default=0)


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

    model = MarkovModel(patterns=patterns)

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
