"""Greedy BRISC dictionary construction.

The paper's algorithm:

1. start from the base instruction set;
2. scan the program, generating candidate patterns by *operand
   specialization* (one field at a time) and *opcode combination* (each
   adjacent pair, crossed with the zero-or-one-field specializations of
   both sides);
3. estimate each candidate's benefit ``B = P − W`` and keep a heap;
4. after each pass, admit the best ``K`` candidates (default 20, the
   paper's table uses K=20), rewrite the program — combinations first,
   then any instruction that a new pattern represents more compactly;
5. stop after a pass yielding fewer than ``K`` candidates with positive B.

**Incremental rescanning** (``prune=True``, the default) keeps the output
byte-identical: savings merge by addition, so the builder re-scans only
the functions whose slots the rewrite step actually changed and applies
the difference between their old and new contributions, which
reproduces exactly the map a full rescan would build.  Candidates whose
running savings total fell to (or below) their admission floor
``dictionary_size() + W`` are dropped from the live heap-candidate set on
the spot instead of being re-scored every round; the floor is constant
per pattern, so liveness is an exact predicate, not a heuristic bound.
W is priced only for a candidate whose savings pass its dictionary
bytes: W ≥ 0, so no other candidate can clear its floor.

**Replay.** Given the journal of an earlier build (``prev``) and the
functions an edit changed, the same loop replays that build: every
unchanged function keeps its final slots and feeds its recorded
per-pass delta through the one merge a scanned delta goes through, and
only changed functions are scanned and rewritten (see
:mod:`repro.brisc.journal`).

**Small integers.** Each distinct :class:`InsnPattern` gets a part id,
each candidate a dense id (cid) keyed by its tuple of part ids, each
instruction an id keyed by its mnemonic and its literals' identity, and
each slot content (its pattern's cid plus its instruction ids) a slot
id.  The scan's memo tables are keyed by those ids: a slot's
specialization row by its slot id, a combination row by the pair of
slot ids.  A function's savings are the sum of its rows, so it is kept
as the list of its row keys, and a rescan expands only the rows that
changed.  A candidate is recorded as its key and dictionary bytes; its
``DictPattern`` is built when W is priced, the heap breaks a tie, or it
is admitted.

The returned :class:`BuildResult` carries the final slot program, the
dictionary in admission order, per-pass statistics, and the counters the
paper reports (candidates tested, dictionary size).
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union,
)

from ..compress.bitio import literal_key
from ..vm.instr import Instr, VMProgram
from .cost import CostModel
from .pattern import (
    _BYTE_SIZES, _NIBBLE_CLASSES, DictPattern, InsnPattern, Wildcard,
)
from .slots import (
    Slot, SlotFunction, SlotProgram, build_slot_function, build_slots,
)

__all__ = ["BuildResult", "BriscBuilder", "PassStats", "build_dictionary"]

_MAX_PARTS = 4

#: A part's price: wildcard nibbles, whole operand bytes, whether the
#: part transfers control, and its serialized size in a dictionary entry.
_PartPrice = Tuple[int, int, bool, int]

#: An augmented-set entry: the candidate's key, its nibbles and whole
#: operand bytes, its encoded size, whether any part transfers control,
#: and whether a part before the last one does.
_Priced = Tuple[Tuple[int, ...], int, int, int, bool, bool]

#: A function's row key: a slot id for the slot's specialization row, a
#: pair of slot ids for the combination row of two adjacent slots.
_RowKey = Union[int, Tuple[int, int]]


def _instr_identity(instr: Instr) -> tuple:
    """The mnemonic and each operand's
    :func:`~repro.compress.bitio.literal_key`: two instructions share it
    exactly when they encode to the same bytes."""
    return (instr.name, *map(literal_key, instr.operands))


def _part_price(part: InsnPattern) -> _PartPrice:
    """The part's wildcard nibbles and whole operand bytes (counted as
    :meth:`DictPattern.operand_layout` counts them), whether it transfers
    control, and its :meth:`InsnPattern.serialized_size`."""
    nibbles = whole = 0
    for f in part.fields:
        if isinstance(f, Wildcard):
            if f.cls in _NIBBLE_CLASSES:
                nibbles += 1
            else:
                whole += _BYTE_SIZES[f.cls]
    # is_control_ok() rejects exactly the patterns with a control part
    # before their last one.
    control = not DictPattern((part, part)).is_control_ok()
    return nibbles, whole, control, part.serialized_size()


class _InternState:
    """Dense candidate ids and what is priced per id.

    Parts: ``part_ids`` gives each distinct :class:`InsnPattern` a small
    id; ``parts`` holds the part object per id and ``part_price`` its
    :func:`_part_price`.  Candidates: ``cids`` maps a candidate's tuple
    of part ids (its *key*) to its dense id (cid) and ``keys`` holds the
    key per cid; ``dict_bytes`` its dictionary-entry bytes (the
    part-count uvarint plus each part's serialized size, as
    :meth:`DictPattern.dictionary_size` counts them); ``floors`` the
    admission floors priced so far; ``patterns`` the ``DictPattern``
    objects built so far (see :meth:`pattern`).

    Everything is append-only, so a build journal shares this state with
    every replay of it without disturbing an assigned id.
    """

    __slots__ = ("part_ids", "parts", "part_price", "cids", "keys",
                 "dict_bytes", "floors", "patterns")

    def __init__(self) -> None:
        self.part_ids: Dict[InsnPattern, int] = {}
        self.parts: List[InsnPattern] = []
        self.part_price: List[_PartPrice] = []
        self.cids: Dict[Tuple[int, ...], int] = {}
        self.keys: List[Tuple[int, ...]] = []
        self.dict_bytes: List[int] = []
        self.floors: Dict[int, int] = {}
        self.patterns: Dict[int, DictPattern] = {}

    # A pickled journal carries the parts, the candidate keys and the
    # floors priced so far (the maps would grow it by over a third); the
    # rest is rebuilt from them in the same order, so every id comes
    # back unchanged.  Any other state layout fails to unpickle, which
    # the disk cache treats as a miss.
    def __getstate__(self) -> dict:
        return {"parts": self.parts, "keys": self.keys,
                "floors": self.floors}

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        for part in state["parts"]:
            self.part_id(part)
        for key in state["keys"]:
            self.intern(key)
        self.floors = state["floors"]

    def part_id(self, part: InsnPattern) -> int:
        """The part's id, assigning one on first sight."""
        pid = self.part_ids.get(part)
        if pid is None:
            pid = len(self.parts)
            self.part_ids[part] = pid
            self.parts.append(part)
            self.part_price.append(_part_price(part))
        return pid

    def intern(self, key: Tuple[int, ...]) -> int:
        """The cid of the candidate whose part ids are ``key``, assigning
        one on first sight."""
        cid = self.cids.get(key)
        if cid is None:
            cid = len(self.keys)
            self.cids[key] = cid
            self.keys.append(key)
            price = self.part_price
            # The part-count uvarint is one byte below 128 parts.
            self.dict_bytes.append(1 + sum([price[p][3] for p in key]))
        return cid

    def intern_pattern(self, pattern: DictPattern) -> int:
        """The cid of an existing pattern (a slot's base pattern); the
        first object seen for a cid becomes the one :meth:`pattern`
        returns."""
        part_id = self.part_id
        cid = self.intern(tuple([part_id(p) for p in pattern.parts]))
        self.patterns.setdefault(cid, pattern)
        return cid

    def pattern(self, cid: int) -> DictPattern:
        """The candidate's ``DictPattern``, built on first use."""
        pattern = self.patterns.get(cid)
        if pattern is None:
            parts = self.parts
            pattern = DictPattern(tuple([parts[p] for p in self.keys[cid]]))
            self.patterns[cid] = pattern
        return pattern

    def floor(self, cid: int, cost: CostModel) -> int:
        """The admission floor: savings must exceed the candidate's
        dictionary-entry bytes plus its working-set cost for B > 0.
        Constant per candidate, so it is priced once."""
        floor = self.floors.get(cid)
        if floor is None:
            floor = (self.dict_bytes[cid]
                     + cost.working_set_cost(self.pattern(cid)))
            self.floors[cid] = floor
        return floor


def _priced(key: Tuple[int, ...], part_price: List[_PartPrice]) -> _Priced:
    nibbles = whole = 0
    controls = []
    for pid in key:
        n, w, control, _ = part_price[pid]
        nibbles += n
        whole += w
        controls.append(control)
    return (key, nibbles, whole, 1 + (nibbles + 1) // 2 + whole,
            any(controls), any(controls[:-1]))


class _Rewrite(NamedTuple):
    """One pass's admitted candidates, indexed for rewriting.

    ``combos`` groups the combinations by first opcode and ``singles``
    every candidate by instruction shape, each as ``(cid, key, encoded
    size)`` in admission order.  ``choice`` memoizes the specialization
    sweep: a slot's choice depends only on its slot id.
    """

    combos: Dict[str, List[Tuple[int, Tuple[int, ...], int]]]
    singles: Dict[Tuple[str, ...], List[Tuple[int, Tuple[int, ...], int]]]
    choice: Dict[int, int]


class _ScanTables:
    """One build's memo tables, keyed by small integers.

    ``instr_ids`` gives each instruction an id (iid) from its
    :func:`_instr_identity`; ``instrs`` keeps one instruction per id and
    ``names`` its mnemonic.  ``sids`` gives each slot content, its
    pattern's cid plus its iids, a slot id (sid); ``sid_cid``,
    ``sid_iids`` and ``sid_size`` hold them and the slot's encoded size,
    and ``base`` maps an iid to the sid of its base slot.  Per sid,
    ``aug`` holds the priced augmented set; ``rows`` holds ``(cid, bytes
    saved per occurrence)`` rows for the specialization scan (keyed by
    sid) and the combination scan (keyed by the pair of sids).
    ``specs`` maps (part id, iid) to the specialization part ids, and
    ``match`` to whether the instruction fits the part.  A slot's
    candidates depend only on its content and, for pairs, its
    neighbour's, so after the first pass a rescan is a table walk.

    The cids come from ``interned``, which a journal shares with the
    replays of its build; every other table belongs to one build.
    """

    __slots__ = ("interned", "instr_ids", "instrs", "names", "base", "sids",
                 "sid_cid", "sid_iids", "sid_size", "aug", "rows", "specs",
                 "match")

    def __init__(self, interned: Optional[_InternState] = None) -> None:
        self.interned = interned if interned is not None else _InternState()
        self.instr_ids: Dict[tuple, int] = {}
        self.instrs: List[Instr] = []
        self.names: List[str] = []
        self.base: Dict[int, int] = {}
        self.sids: Dict[Tuple[int, ...], int] = {}
        self.sid_cid: List[int] = []
        self.sid_iids: List[Tuple[int, ...]] = []
        self.sid_size: List[int] = []
        self.aug: Dict[int, List[_Priced]] = {}
        self.rows: Dict[_RowKey, List[Tuple[int, int]]] = {}
        self.specs: Dict[Tuple[int, int], List[int]] = {}
        self.match: Dict[Tuple[int, int], bool] = {}

    # -- ids -----------------------------------------------------------------

    def instr_id(self, instr: Instr) -> int:
        key = _instr_identity(instr)
        iid = self.instr_ids.get(key)
        if iid is None:
            iid = len(self.instrs)
            self.instr_ids[key] = iid
            self.instrs.append(instr)
            self.names.append(instr.name)
        return iid

    def slot_id(self, cid: int, iids: Tuple[int, ...]) -> int:
        """The id of a slot content.  A slot holds a base pattern or an
        admitted candidate, so its pattern is already built."""
        key = (cid,) + iids
        sid = self.sids.get(key)
        if sid is None:
            sid = len(self.sid_cid)
            self.sids[key] = sid
            self.sid_cid.append(cid)
            self.sid_iids.append(iids)
            self.sid_size.append(self.interned.pattern(cid).encoded_size())
        return sid

    def slot_id_of(self, slot: Slot) -> int:
        return self.slot_id(self.interned.intern_pattern(slot.pattern),
                            tuple([self.instr_id(i) for i in slot.insns]))

    def seed(self, fn: SlotFunction) -> Tuple[List[int], List[int]]:
        """The base cids and the slot ids of a freshly slotted function.

        Each slot's base pattern is replaced by its cid's object, so
        equal patterns are one object.  A base slot's content follows
        from its one instruction, so it is looked up by iid.
        """
        patterns = self.interned.patterns
        base = self.base
        sid_cid = self.sid_cid
        cids: List[int] = []
        sids: List[int] = []
        for slot in fn.slots:
            iid = self.instr_id(slot.insns[0])
            sid = base.get(iid)
            if sid is None:
                sid = self.slot_id_of(slot)
                base[iid] = sid
            cid = sid_cid[sid]
            slot.pattern = patterns[cid]
            cids.append(cid)
            sids.append(sid)
        return cids, sids

    # -- scan ----------------------------------------------------------------

    def priced_set(self, sid: int) -> List[_Priced]:
        """The slot's pattern plus its one-field specializations (the
        paper's "augmented operand-specialized set"), priced, memoized
        per slot id."""
        out = self.aug.get(sid)
        if out is not None:
            return out
        interned = self.interned
        price = interned.part_price
        specs = self.specs
        base = interned.keys[self.sid_cid[sid]]
        out = [_priced(base, price)]
        for pi, (pid, iid) in enumerate(zip(base, self.sid_iids[sid])):
            spec_ids = specs.get((pid, iid))
            if spec_ids is None:
                part_id = interned.part_id
                spec_ids = [part_id(spec) for spec in
                            interned.parts[pid].specializations(
                                self.instrs[iid])]
                specs[(pid, iid)] = spec_ids
            for spec in spec_ids:
                out.append(_priced(base[:pi] + (spec,) + base[pi + 1:],
                                   price))
        self.aug[sid] = out
        return out

    def spec_row(self, sid: int) -> List[Tuple[int, int]]:
        """The slot's specialization candidates and their savings."""
        current, *specs = self.priced_set(sid)
        size = current[3]
        intern = self.interned.intern
        row = [(intern(entry[0]), size - entry[3])
               for entry in specs if entry[3] < size]
        self.rows[sid] = row
        return row

    def pair_row(self, sid: int, nxt: int) -> List[Tuple[int, int]]:
        """The adjacent pair's combination candidates and savings.

        Priced from the two augmented sets: a combination's nibbles pack
        across both halves, so its size is ``1 + (na + nb + 1) // 2 + wa +
        wb``; it keeps control transfers in its last part exactly when the
        left half has none and the right half none before its last part.
        """
        a_set = self.priced_set(sid)
        b_set = self.priced_set(nxt)
        pair_size = a_set[0][3] + b_set[0][3]
        interned = self.interned
        lookup = interned.cids.get
        row = []
        for ka, na, wa, _, a_control, _ in a_set:
            if a_control:
                continue
            for kb, nb, wb, _, _, b_control_before_last in b_set:
                if b_control_before_last:
                    continue
                saved = pair_size - (1 + (na + nb + 1) // 2 + wa + wb)
                if saved > 0:
                    key = ka + kb
                    cid = lookup(key)
                    if cid is None:
                        cid = interned.intern(key)
                    row.append((cid, saved))
        self.rows[(sid, nxt)] = row
        return row

    def row_keys(self, slots: List[Slot], sids: List[int]) -> List[_RowKey]:
        """The keys of one function's non-empty rows.

        Raw means pre-filter: the rows hold every candidate whose
        occurrence saves bytes, including patterns already in the
        dictionary — the caller filters those out.  Keeping the scan
        filter-free is what makes a function's contribution subtractable
        for the incremental rescan.
        """
        rows = self.rows
        get = rows.get
        sid_iids = self.sid_iids
        keys: List[_RowKey] = []
        last = len(sids) - 1
        for i, sid in enumerate(sids):
            # Operand specialization, one field at a time.
            row = get(sid)
            if row is None:
                row = self.spec_row(sid)
            if row:
                keys.append(sid)
            # Opcode combination with the right neighbour.
            if i == last or slots[i + 1].is_block_start:
                continue
            nxt = sids[i + 1]
            if len(sid_iids[sid]) + len(sid_iids[nxt]) > _MAX_PARTS:
                continue
            key = (sid, nxt)
            row = get(key)
            if row is None:
                row = self.pair_row(sid, nxt)
            if row:
                keys.append(key)
        return keys

    def delta(self, old: List[_RowKey],
              new: List[_RowKey]) -> Dict[int, int]:
        """The net savings change (cid → nonzero delta) of a function
        whose row keys went from ``old`` to ``new``: only rows whose
        count changed are expanded."""
        rows = self.rows
        before, after = Counter(old), Counter(new)
        net: Dict[int, int] = {}
        get = net.get
        for key, count in after.items():
            count -= before.get(key, 0)
            if count:
                for cid, saved in rows[key]:
                    net[cid] = get(cid, 0) + count * saved
        for key, count in before.items():
            if key not in after:
                for cid, saved in rows[key]:
                    net[cid] = get(cid, 0) - count * saved
        return {cid: d for cid, d in net.items() if d}

    # -- rewrite -------------------------------------------------------------

    def prepare_rewrite(self, admitted: List[int]) -> _Rewrite:
        """Index one pass's admitted candidates for :meth:`rewrite`."""
        interned = self.interned
        parts = interned.parts
        rewrite = _Rewrite({}, {}, {})
        for cid in admitted:
            key = interned.keys[cid]
            entry = (cid, key, interned.pattern(cid).encoded_size())
            shape = tuple([parts[p].name for p in key])
            if len(key) > 1:
                rewrite.combos.setdefault(shape[0], []).append(entry)
            rewrite.singles.setdefault(shape, []).append(entry)
        return rewrite

    def matches(self, pid: int, iid: int) -> bool:
        """Whether the instruction fits the part, memoized."""
        fits = self.match.get((pid, iid))
        if fits is None:
            fits = self.interned.parts[pid].matches(self.instrs[iid])
            self.match[(pid, iid)] = fits
        return fits

    def rewrite(self, fn: SlotFunction, sids: List[int],
                rewrite: _Rewrite) -> bool:
        """Rewrite one function (and its slot ids, in place) with a pass's
        admitted candidates.  Returns whether its slots changed."""
        changed = False
        # Combination pass: left-to-right, merge windows of slots whose
        # concatenated instructions match a new combined pattern.
        if rewrite.combos and self._combine(fn, sids, rewrite.combos):
            changed = True
        # Specialization pass: adopt any new pattern that represents a slot
        # more compactly.  Candidates are tried in admission order, so a
        # pass's rewrite outcome depends on the admitted *sequence* — which
        # is why a replay checks each pass's admissions against the
        # recorded list, order included.
        choice = rewrite.choice
        for i, sid in enumerate(sids):
            best = choice.get(sid)
            if best is None:
                best = choice[sid] = self._specialize(sid, rewrite.singles)
            if best != sid:
                sids[i] = best
                fn.slots[i].pattern = self.interned.pattern(
                    self.sid_cid[best])
                changed = True
        return changed

    def _specialize(self, sid: int, singles) -> int:
        """The slot id after the specialization sweep."""
        iids = self.sid_iids[sid]
        names = self.names
        best = None
        best_size = self.sid_size[sid]
        for cid, key, size in singles.get(tuple([names[i] for i in iids]),
                                          ()):
            if size < best_size and all(map(self.matches, key, iids)):
                best, best_size = cid, size
        return sid if best is None else self.slot_id(best, iids)

    def _window(self, slots: List[Slot], sids: List[int], i: int,
                key: Tuple[int, ...]) -> Optional[Tuple[int, int]]:
        """The end and the encoded size of the window of whole slots from
        ``i`` whose instructions match ``key`` part by part, or ``None``.
        Only the first slot of a window may start a block."""
        sid_iids = self.sid_iids
        k = size = 0
        j = i
        while k < len(key):
            if j > i and (j == len(slots) or slots[j].is_block_start):
                return None
            for iid in sid_iids[sids[j]]:
                if k == len(key) or not self.matches(key[k], iid):
                    return None
                k += 1
            size += self.sid_size[sids[j]]
            j += 1
        return j, size

    def _combine(self, fn: SlotFunction, sids: List[int], combos) -> bool:
        slots = fn.slots
        sid_iids = self.sid_iids
        names = self.names
        out_slots: List[Slot] = []
        out_sids: List[int] = []
        i = 0
        while i < len(slots):
            for cid, key, size in combos.get(names[sid_iids[sids[i]][0]], ()):
                window = self._window(slots, sids, i, key)
                if window is not None and size < window[1]:
                    j = window[0]
                    out_slots.append(Slot(
                        insns=tuple([ins for s in slots[i:j]
                                     for ins in s.insns]),
                        pattern=self.interned.pattern(cid),
                        is_block_start=slots[i].is_block_start,
                        labels=slots[i].labels,
                    ))
                    out_sids.append(self.slot_id(cid, tuple(
                        [iid for s in sids[i:j] for iid in sid_iids[s]])))
                    i = j
                    break
            else:
                out_slots.append(slots[i])
                out_sids.append(sids[i])
                i += 1
        if len(out_slots) == len(slots):
            return False
        fn.slots = out_slots
        sids[:] = out_sids
        return True


@dataclass
class PassStats:
    """One greedy pass: scan size, admissions, and wall time."""

    candidates: int
    admitted: int
    seconds: float


@dataclass
class BuildResult:
    """Output of dictionary construction."""

    slots: SlotProgram
    dictionary: List[DictPattern]
    candidates_tested: int
    passes: int
    base_patterns: int
    pass_stats: List[PassStats] = field(default_factory=list)
    #: Pass-by-pass replay journal (see :mod:`repro.brisc.journal`),
    #: recorded when the builder ran with ``journal=True``.  It is what
    #: lets a later build of an edited program replay this build's
    #: trajectory instead of re-scoring every candidate.
    journal: Optional[object] = None

    @property
    def dictionary_size(self) -> int:
        return len(self.dictionary)

    @property
    def seconds(self) -> float:
        return sum(p.seconds for p in self.pass_stats)


class BriscBuilder:
    """Runs the greedy construction over one program.

    ``prune=False`` disables the incremental rescan and re-scores every
    candidate every pass (the pre-optimization behaviour, kept as the
    reference for determinism tests).

    ``prev`` replays that earlier build's journal for ``program``, in
    which only the functions whose indices are in ``changed`` differ from
    the program ``prev`` compressed.  :meth:`run` then returns ``None``
    as soon as a pass admits anything other than the recorded list, or
    the journal has no pass left.
    """

    def __init__(
        self,
        program: VMProgram,
        k: int = 20,
        abundant_memory: bool = False,
        max_passes: int = 40,
        prune: bool = True,
        journal: bool = False,
        prev: Optional[BuildResult] = None,
        changed: Set[int] = frozenset(),
    ) -> None:
        t0 = time.perf_counter()
        self.k = k
        self.cost = CostModel(abundant_memory)
        self.max_passes = max_passes
        self.prune = prune
        self.seen: set = set()
        self.dictionary: List[DictPattern] = []
        self.candidates_tested = 0
        self.passes = 0
        self.pass_stats: List[PassStats] = []
        # A replay scans and rewrites only the changed functions; each
        # other one keeps its final slots from ``prev``.  ``_recorded``
        # holds, per recorded pass, the unchanged functions' deltas and
        # the admissions the pass must repeat.
        recorded = None if prev is None else prev.journal
        self._recorded: Optional[List[Tuple[Dict[int, Dict[int, int]],
                                            List[int]]]] = None
        if recorded is None:
            self.slots = build_slots(program)
            self._scanned: Sequence[int] = range(len(program.functions))
            self._tables = _ScanTables()
        else:
            self.slots = SlotProgram(program.name, entry=program.entry)
            self.slots.functions = [
                build_slot_function(fn) if index in changed
                else prev.slots.functions[index]
                for index, fn in enumerate(program.functions)]
            self._scanned = sorted(changed)
            self._tables = _ScanTables(recorded.interned)
            self._recorded = [
                ({index: net for index, net in p.deltas
                  if index not in changed}, p.admitted)
                for p in recorded.passes]
        # Incremental-scan state, keyed by the tables' dense candidate
        # ids: each function's slot ids and row keys, the merged savings
        # totals, the live (positive-benefit) candidate set, which ids
        # are already dictionary members (and how many of those sit in
        # the merged map), and the functions the next scan must visit.
        # All maintained so the merged map always equals what a full
        # rescan would produce.
        self._sids: List[Optional[List[int]]] = []
        self._row_keys: List[List[_RowKey]] = [[] for _ in program.functions]
        self._savings: Dict[int, int] = {}
        self._live: Set[int] = set()
        self._dict_ids: Set[int] = set()
        self._dict_overlap = 0
        self._changed: Set[int] = set(self._scanned)
        # Heap tie-break keys per cid: constant, so built once.
        self._ties: Dict[int, str] = {}
        # Replay journal: records the base seed and each pass's savings
        # deltas and admissions, so an edited program can replay this
        # build (see :mod:`repro.brisc.journal`).  ``prune=False`` never
        # computes per-function deltas, so it skips recording.
        self._journal = None
        if journal and prune:
            from .journal import BuildJournal

            self._journal = BuildJournal(
                config_sig=_config_sig(k, abundant_memory, max_passes),
                interned=self._tables.interned,
            )
        self._seed_base_patterns(recorded.base_seed if recorded else None)
        self.base_patterns = len(self.dictionary)
        # Slotting and seeding precede the first pass; run() charges
        # them to it, so BuildResult.seconds is wall time.
        self._setup_seconds = time.perf_counter() - t0

    def _seed_base_patterns(self, recorded_seed: Optional[list]) -> None:
        journal = self._journal
        scanned = set(self._scanned)
        for index, fn in enumerate(self.slots.functions):
            # Every base pattern gets its cid up front, so dictionary
            # membership is a plain cid-set lookup from the first scan on.
            # A replayed function's slots are final, so its seed is the
            # recorded one.
            if index in scanned:
                seed, sids = self._tables.seed(fn)
            else:
                seed, sids = recorded_seed[index], None
            self._sids.append(sids)
            if journal is not None:
                journal.base_seed.append(seed)
            for cid in seed:
                self._admit(cid)

    def _admit(self, cid: int) -> None:
        if cid not in self._dict_ids:
            self._dict_ids.add(cid)
            self.dictionary.append(self._tables.interned.pattern(cid))
            if cid in self._savings:
                self._dict_overlap += 1
            self._live.discard(cid)

    # -- candidate generation ----------------------------------------------

    def _augmented_set(self, slot: Slot) -> List[DictPattern]:
        """The slot's augmented operand-specialization set (memoized)."""
        tables = self._tables
        parts = tables.interned.parts
        return [DictPattern(tuple([parts[p] for p in entry[0]]))
                for entry in tables.priced_set(tables.slot_id_of(slot))]

    def _merge(self, net: Dict[int, int]) -> None:
        """Apply one function's net savings delta to the merged map,
        maintaining the live set, the dictionary-overlap count, and the
        paper's candidates-tested counter exactly as a full rescan
        would.  A scanned delta and a replayed one both go through here.

        A candidate is live when its savings exceed its floor (B > 0).
        W ≥ 0, so savings at or below the dictionary bytes never do, and
        W is priced only for candidates whose savings get past them.
        """
        savings = self._savings
        get = savings.get
        add, discard = self._live.add, self._live.discard
        members = self._dict_ids
        seen = self.seen
        interned = self._tables.interned
        dict_bytes = interned.dict_bytes
        floors = interned.floors.get
        cost = self.cost
        overlap = 0
        for cid, delta in net.items():
            current = get(cid)
            if current is None:
                if delta <= 0:
                    continue
                savings[cid] = value = delta
                if cid in members:
                    overlap += 1
                    continue
                seen.add(cid)
            else:
                value = current + delta
                if value <= 0:
                    del savings[cid]
                    if cid in members:
                        overlap -= 1
                    else:
                        discard(cid)
                    continue
                savings[cid] = value
                if cid in members:
                    continue
            if value > dict_bytes[cid]:
                floor = floors(cid)
                if floor is None:
                    floor = interned.floor(cid, cost)
                if value > floor:
                    add(cid)
                    continue
            elif delta > 0:
                # Rose, yet not past its dictionary bytes: it was not
                # live before either.
                continue
            discard(cid)
        self._dict_overlap += overlap
        self.candidates_tested = len(seen)

    def _refresh_savings(self) -> None:
        """Bring the merged savings map up to date for this pass.

        The first pass (and every pass when ``prune=False``) scans every
        function; later passes re-scan only the functions the previous
        rewrite changed, applying the difference between each one's old
        and new rows.  Both paths produce the same merged map.  In a
        replay, an unchanged function is never scanned: its recorded
        delta for the pass is merged in its place, in the same
        function order.
        """
        functions = self.slots.functions
        if not self.prune:
            self._row_keys = [[] for _ in functions]
            self._savings = {}
            self._live = set()
            self._dict_overlap = 0
            self._changed = set(self._scanned)
        replayed: Dict[int, Dict[int, int]] = {}
        if self._recorded is not None:
            replayed = self._recorded[self.passes - 1][0]
        tables = self._tables
        row_keys = self._row_keys
        journal = self._journal
        record = journal.passes[-1].deltas if journal is not None else None
        for index in sorted(self._changed.union(replayed)):
            net = replayed.get(index)
            if net is None:
                keys = tables.row_keys(functions[index].slots,
                                       self._sids[index])
                # Net per-function delta (new − old): replaying these in
                # sequence reproduces the merged savings map exactly,
                # because merging is plain addition.
                net = tables.delta(row_keys[index], keys)
                row_keys[index] = keys
            self._merge(net)
            if record is not None:
                record.append((index, net))
        self._changed = set()

    # -- rewriting -----------------------------------------------------------

    def _apply_patterns(self, admitted: List[int]) -> Set[int]:
        """Rewrite every scanned function with the newly admitted
        candidates.

        Returns the indices of functions whose slots actually changed —
        the only ones whose candidate contributions the next pass must
        re-scan.
        """
        tables = self._tables
        rewrite = tables.prepare_rewrite(admitted)
        functions = self.slots.functions
        return {index for index in self._scanned
                if tables.rewrite(functions[index], self._sids[index],
                                  rewrite)}

    # -- driver ------------------------------------------------------------

    def run(self) -> Optional[BuildResult]:
        journal = self._journal
        recorded = self._recorded
        interned = self._tables.interned
        setup = self._setup_seconds
        while self.passes < self.max_passes:
            if recorded is not None and self.passes == len(recorded):
                return None
            self.passes += 1
            t0 = time.perf_counter()
            if journal is not None:
                from .journal import PassJournal

                journal.passes.append(PassJournal())
            self._refresh_savings()
            savings = self._savings
            # Snapshot before admission: the pass's candidate count is
            # the merged map minus patterns already admitted when the
            # scan ran, exactly what the full-rescan filter reported.
            candidates = len(savings) - self._dict_overlap
            admitted = _admissions(self._live, savings, interned, self.cost,
                                   self.k, self._ties)
            # A replay must admit exactly the recorded sequence: rewriting
            # tries candidates in admission order, so even a reorder can
            # change a tie-break, and with it the slots the unchanged
            # functions' recorded deltas were measured against.
            if (recorded is not None
                    and admitted != recorded[self.passes - 1][1]):
                return None
            for cid in admitted:
                self._admit(cid)
            if journal is not None:
                journal.passes[-1].admitted = admitted
            if admitted:
                self._changed = self._apply_patterns(admitted)
            self.pass_stats.append(PassStats(
                candidates=candidates,
                admitted=len(admitted),
                seconds=setup + time.perf_counter() - t0,
            ))
            setup = 0.0
            if len(admitted) < self.k:
                break
        return BuildResult(
            slots=self.slots,
            dictionary=self.dictionary,
            candidates_tested=self.candidates_tested,
            passes=self.passes,
            base_patterns=self.base_patterns,
            pass_stats=self.pass_stats,
            journal=journal,
        )


def _admissions(live, savings: Dict[int, int], interned: _InternState,
                cost: CostModel, k: int,
                ties: Dict[int, str]) -> List[int]:
    """The pass's admissions: the (at most) ``k`` best live candidates.

    The live set is exactly {cand : benefit(cand) > 0} and benefit ==
    savings - floor, so the heap (and therefore the admission order)
    matches a full benefit sweep.  Candidates order by benefit, then by
    dictionary bytes, then by the pattern's text; distinct patterns print
    differently, so the order is invariant under id assignment.  Only
    candidates of equal benefit within the admitted prefix or across its
    k-th place are compared further (see :func:`_break_ties`).
    """
    heap = [(interned.floor(cid, cost) - savings[cid], cid) for cid in live]
    heapq.heapify(heap)
    admitted: List[int] = []
    while heap and len(admitted) < k:
        benefit, cid = heapq.heappop(heap)
        tied = [cid]
        while heap and heap[0][0] == benefit:
            tied.append(heapq.heappop(heap)[1])
        if len(tied) > 1:
            tied = _break_ties(tied, interned, ties)
        admitted.extend(tied[:k - len(admitted)])
    return admitted


def _break_ties(tied: List[int], interned: _InternState,
                ties: Dict[int, str]) -> List[int]:
    """Candidates of equal benefit in admission order: by dictionary
    bytes, then by pattern text, built only for those equal on both and
    cached per cid in ``ties``."""
    by_size: Dict[int, List[int]] = {}
    for cid in tied:
        size = interned.pattern(cid).dictionary_size()
        by_size.setdefault(size, []).append(cid)
    ordered: List[int] = []
    for size in sorted(by_size):
        group = by_size[size]
        if len(group) > 1:
            for cid in group:
                if cid not in ties:
                    ties[cid] = str(interned.pattern(cid))
            group.sort(key=ties.__getitem__)
        ordered.extend(group)
    return ordered


def _config_sig(k: int, abundant_memory: bool, max_passes: int) -> str:
    """Builder-knob signature stored in the journal; replay refuses a
    journal recorded under different knobs."""
    return f"k={k};abundant={abundant_memory};passes={max_passes}"


def build_dictionary(
    program: VMProgram,
    k: int = 20,
    abundant_memory: bool = False,
    max_passes: int = 40,
    prune: bool = True,
    journal: bool = False,
) -> BuildResult:
    """Run greedy BRISC dictionary construction over ``program``.

    ``prune=False`` falls back to re-scoring every candidate every pass
    (identical output, used as the determinism reference).
    ``journal=True`` additionally records a pass-by-pass replay journal
    on the result (see :mod:`repro.brisc.journal`) that lets a later
    build of an edited program skip re-scoring unchanged functions.
    """
    return BriscBuilder(program, k, abundant_memory, max_passes,
                        prune=prune, journal=journal).run()
