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
byte-identical: the builder keeps each function's candidate→savings
contribution from the previous pass and, because savings merge by
addition, only re-scans functions whose slots the rewrite step actually
changed — subtracting the stale contribution and adding the fresh one
reproduces exactly the map a full rescan would build.  Candidates whose
running savings total fell to (or below) their admission floor
``dictionary_size() + W`` are dropped from the live heap-candidate set on
the spot instead of being re-scored every round; the floor is constant
per pattern, so liveness is an exact predicate, not a heuristic bound.
W is priced only for a candidate whose savings pass its dictionary
bytes: W ≥ 0, so no other candidate can clear its floor.

**Interning by part ids.** Each distinct :class:`InsnPattern` gets a
small part id, and each candidate a dense id (cid) keyed by its tuple of
part ids, so the scan prices and interns combinations with integer
arithmetic and int-tuple lookups; a candidate's ``DictPattern`` is built
once, when it is first seen.

The returned :class:`BuildResult` carries the final slot program, the
dictionary in admission order, per-pass statistics, and the counters the
paper reports (candidates tested, dictionary size).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from ..compress.bitio import uvarint
from ..vm.instr import Instr, VMProgram
from .cost import CostModel
from .pattern import (
    _BYTE_SIZES, _NIBBLE_CLASSES, DictPattern, InsnPattern, Wildcard,
)
from .slots import Slot, SlotFunction, SlotProgram, build_slots

__all__ = ["BuildResult", "BriscBuilder", "PassStats", "build_dictionary",
           "prepare_rewrite", "rewrite_function"]

_MAX_PARTS = 4

#: A part's price: wildcard nibbles, whole operand bytes, and whether
#: the part transfers control.
_PartPrice = Tuple[int, int, bool]


def _part_price(part: InsnPattern) -> _PartPrice:
    """The part's wildcard nibbles and whole operand bytes (counted as
    :meth:`DictPattern.operand_layout` counts them) and whether it
    transfers control."""
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
    return nibbles, whole, control


class _InternState:
    """Dense candidate ids and what is priced per id.

    Parts: ``part_ids`` gives each distinct :class:`InsnPattern` a small
    id; ``parts`` holds the part object per id and ``part_price`` its
    :func:`_part_price`.  Candidates: ``cids`` maps a candidate's tuple
    of part ids (its *key*) to its dense id (cid); ``patterns`` holds its
    ``DictPattern``, built on first sight; ``dict_bytes`` its
    dictionary-entry bytes (the part-count uvarint plus each part's
    serialized size, as :meth:`DictPattern.dictionary_size` counts them);
    ``floors`` the admission floors priced so far.

    Everything is append-only, so a build journal shares this state with
    every replay of it without disturbing an assigned id.
    """

    __slots__ = ("part_ids", "parts", "part_price", "cids", "patterns",
                 "dict_bytes", "floors")

    def __init__(self) -> None:
        self.part_ids: Dict[InsnPattern, int] = {}
        self.parts: List[InsnPattern] = []
        self.part_price: List[_PartPrice] = []
        self.cids: Dict[Tuple[int, ...], int] = {}
        self.patterns: List[DictPattern] = []
        self.dict_bytes: List[int] = []
        self.floors: Dict[int, int] = {}

    # A pickled journal carries only the patterns, the parts and the
    # floors priced so far (the maps would grow it by over a third); the
    # rest is rebuilt from them in the same order, so every id comes
    # back unchanged.
    def __getstate__(self) -> tuple:
        return self.patterns, self.parts, self.floors

    def __setstate__(self, state: tuple) -> None:
        patterns, parts, floors = state
        self.__init__()
        for part in parts:
            self.part_id(part)
        for pattern in patterns:
            self.intern_pattern(pattern)
        self.floors = floors

    def part_id(self, part: InsnPattern) -> int:
        """The part's id, assigning one on first sight."""
        pid = self.part_ids.get(part)
        if pid is None:
            pid = len(self.parts)
            self.part_ids[part] = pid
            self.parts.append(part)
            self.part_price.append(_part_price(part))
        return pid

    def intern(self, key: Tuple[int, ...],
               pattern: Optional[DictPattern] = None) -> int:
        """The cid of the candidate whose part ids are ``key``, assigning
        one on first sight (and building its pattern unless given)."""
        cid = self.cids.get(key)
        if cid is None:
            parts = self.parts
            if pattern is None:
                pattern = DictPattern(tuple([parts[p] for p in key]))
            size = len(uvarint(len(key)))
            for p in key:
                size += parts[p].serialized_size()
            cid = len(self.patterns)
            self.cids[key] = cid
            self.patterns.append(pattern)
            self.dict_bytes.append(size)
        return cid

    def intern_pattern(self, pattern: DictPattern) -> int:
        """The cid of an existing pattern (a slot's base pattern)."""
        part_id = self.part_id
        return self.intern(tuple([part_id(p) for p in pattern.parts]),
                           pattern)

    def floor(self, cid: int, cost: CostModel) -> int:
        """The admission floor: savings must exceed the candidate's
        dictionary-entry bytes plus its working-set cost for B > 0.
        Constant per candidate, so it is priced once."""
        floor = self.floors.get(cid)
        if floor is None:
            floor = (self.dict_bytes[cid]
                     + cost.working_set_cost(self.patterns[cid]))
            self.floors[cid] = floor
        return floor

    def clears_floor(self, cid: int, savings: int, cost: CostModel) -> bool:
        """Whether ``savings`` exceed the candidate's floor (B > 0).

        Priced in two steps: W ≥ 0, so savings at or below the dictionary
        bytes never clear the floor, and W is priced only for candidates
        whose savings get past those bytes.
        """
        return (savings > self.dict_bytes[cid]
                and savings > self.floor(cid, cost))


class _Priced(NamedTuple):
    """One augmented-set entry, priced when its set is built."""

    key: Tuple[int, ...]
    nibbles: int
    whole: int
    size: int
    any_control: bool
    control_before_last: bool


def _priced(key: Tuple[int, ...], part_price: List[_PartPrice]) -> _Priced:
    nibbles = whole = 0
    controls = []
    for pid in key:
        n, w, control = part_price[pid]
        nibbles += n
        whole += w
        controls.append(control)
    return _Priced(key, nibbles, whole, 1 + (nibbles + 1) // 2 + whole,
                   any(controls), any(controls[:-1]))


class _ScanTables:
    """Memoized candidate tables driving the scan.

    ``aug`` holds each (pattern, insns) key's priced augmented set;
    ``spec`` and ``pair`` hold precomputed ``(cid, bytes saved per
    occurrence)`` rows for the specialization and combination scans.  A
    slot's candidates and their per-occurrence savings depend only on its
    (pattern, insns) — and, for pairs, the neighbour's — so after the
    first pass a rescan is a table walk.

    The cids come from ``interned``, which a journal shares with the
    replays of its build; the row caches belong to one build.
    """

    __slots__ = ("aug", "spec", "pair", "interned")

    def __init__(self, interned: Optional[_InternState] = None) -> None:
        self.aug: Dict[Tuple[DictPattern, Tuple[Instr, ...]],
                       List[_Priced]] = {}
        self.spec: Dict[tuple, List[Tuple[int, int]]] = {}
        self.pair: Dict[tuple, List[Tuple[int, int]]] = {}
        self.interned = interned if interned is not None else _InternState()

    @property
    def patterns(self) -> List[DictPattern]:
        """Every interned candidate's pattern, indexed by cid."""
        return self.interned.patterns


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


def _priced_set(slot: Slot, tables: _ScanTables) -> List[_Priced]:
    """The slot's pattern plus its one-field specializations (the paper's
    "augmented operand-specialized set"), priced, memoized per
    (pattern, insns).

    Memoization pays because a slot is rescanned on every pass (up to
    ``max_passes`` times) and because many slots share a pattern/insns
    pair after specialization converges.
    """
    key = (slot.pattern, slot.insns)
    cached = tables.aug.get(key)
    if cached is not None:
        return cached
    interned = tables.interned
    part_id = interned.part_id
    price = interned.part_price
    parts = slot.pattern.parts
    base = [part_id(part) for part in parts]
    out = [_priced(tuple(base), price)]
    for pi, (part, instr) in enumerate(zip(parts, slot.insns)):
        for spec in part.specializations(instr):
            ids = list(base)
            ids[pi] = part_id(spec)
            out.append(_priced(tuple(ids), price))
    tables.aug[key] = out
    return out


def _spec_row(slot: Slot, tables: _ScanTables) -> List[Tuple[int, int]]:
    """The slot's specialization candidates and their savings, memoized."""
    key = (slot.pattern, slot.insns)
    row = tables.spec.get(key)
    if row is None:
        current, *specs = _priced_set(slot, tables)
        intern = tables.interned.intern
        row = [(intern(entry.key), current.size - entry.size)
               for entry in specs if entry.size < current.size]
        tables.spec[key] = row
    return row


def _pair_row(
    slot: Slot, nxt: Slot, tables: _ScanTables
) -> List[Tuple[int, int]]:
    """The adjacent pair's combination candidates and savings, memoized.

    Priced from the two augmented sets: a combination's nibbles pack
    across both halves, so its size is ``1 + (na + nb + 1) // 2 + wa +
    wb``; it keeps control transfers in its last part exactly when the
    left half has none and the right half none before its last part.
    """
    key = (slot.pattern, slot.insns, nxt.pattern, nxt.insns)
    row = tables.pair.get(key)
    if row is None:
        a_set = _priced_set(slot, tables)
        b_set = _priced_set(nxt, tables)
        pair_size = a_set[0].size + b_set[0].size
        intern = tables.interned.intern
        row = []
        for ka, na, wa, _, a_control, _ in a_set:
            if a_control:
                continue
            for kb, nb, wb, _, _, b_control_before_last in b_set:
                if b_control_before_last:
                    continue
                saved = pair_size - (1 + (na + nb + 1) // 2 + wa + wb)
                if saved > 0:
                    row.append((intern(ka + kb), saved))
        tables.pair[key] = row
    return row


def _scan_slots(
    slots: List[Slot],
    savings: Dict[int, int],
    tables: _ScanTables,
) -> None:
    """Accumulate one function's raw candidate savings into ``savings``
    (keyed by the tables' candidate ids).

    Raw means pre-filter: every candidate whose occurrence saves bytes is
    summed, including patterns already in the dictionary — the caller
    filters those out.  Keeping the scan filter-free is what makes
    per-function contributions subtractable for the incremental rescan.
    """
    get = savings.get
    for i, slot in enumerate(slots):
        # Operand specialization, one field at a time.
        for cid, saved in _spec_row(slot, tables):
            savings[cid] = get(cid, 0) + saved
        # Opcode combination with the right neighbour.
        if i + 1 >= len(slots):
            continue
        nxt = slots[i + 1]
        if nxt.is_block_start:
            continue
        if len(slot.insns) + len(nxt.insns) > _MAX_PARTS:
            continue
        for cid, saved in _pair_row(slot, nxt, tables):
            savings[cid] = get(cid, 0) + saved


def prepare_rewrite(
    admitted: Sequence[DictPattern],
) -> Tuple[Dict[str, List[DictPattern]], Dict[Tuple[str, ...], List[DictPattern]]]:
    """Index one pass's admitted patterns for rewriting: combinations
    grouped by first opcode, and every pattern grouped by instruction
    shape (for the specialization sweep).  Shared with the journal
    replayer, which rewrites only the edited functions."""
    combos_by_first: Dict[str, List[DictPattern]] = {}
    singles_by_shape: Dict[Tuple[str, ...], List[DictPattern]] = {}
    for p in admitted:
        if len(p.parts) > 1:
            combos_by_first.setdefault(p.parts[0].name, []).append(p)
        shape = tuple(part.name for part in p.parts)
        singles_by_shape.setdefault(shape, []).append(p)
    return combos_by_first, singles_by_shape


def rewrite_function(
    fn: SlotFunction,
    combos_by_first: Dict[str, List[DictPattern]],
    singles_by_shape: Dict[Tuple[str, ...], List[DictPattern]],
) -> bool:
    """Rewrite one function with a pass's admitted patterns (indexed by
    :func:`prepare_rewrite`).  Returns whether its slots changed."""
    changed = False
    # Combination pass: left-to-right, merge windows of slots whose
    # concatenated instructions match a new combined pattern.
    if combos_by_first:
        merged_slots, merged_any = _combine_slots(fn.slots, combos_by_first)
        if merged_any:
            fn.slots = merged_slots
            changed = True
    # Specialization pass: adopt any new pattern that represents a slot
    # more compactly.  Candidates are tried in admission order, so a
    # pass's rewrite outcome depends on the admitted *sequence* — which
    # is why the journal replayer verifies its re-derived admissions
    # against the recorded list, order included.
    for slot in fn.slots:
        shape = tuple(i.name for i in slot.insns)
        best = slot.pattern
        best_size = slot.size
        for cand in singles_by_shape.get(shape, ()):
            if cand.encoded_size() < best_size and cand.matches(slot.insns):
                best = cand
                best_size = cand.encoded_size()
        if best is not slot.pattern:
            slot.pattern = best
            changed = True
    return changed


def _combine_slots(
    slots: List[Slot], by_first: Dict[str, List[DictPattern]]
) -> Tuple[List[Slot], bool]:
    out: List[Slot] = []
    merged_any = False
    i = 0
    while i < len(slots):
        slot = slots[i]
        merged = None
        for cand in by_first.get(slot.insns[0].name, ()):
            nparts = len(cand.parts)
            # Collect a window of whole slots covering nparts insns.
            window = [slot]
            total = len(slot.insns)
            j = i + 1
            ok = True
            while total < nparts:
                if j >= len(slots) or slots[j].is_block_start:
                    ok = False
                    break
                window.append(slots[j])
                total += len(slots[j].insns)
                j += 1
            if not ok or total != nparts:
                continue
            insns = tuple(ins for s in window for ins in s.insns)
            if not cand.matches(insns):
                continue
            old = sum(s.size for s in window)
            if cand.encoded_size() >= old:
                continue
            merged = Slot(
                insns=insns,
                pattern=cand,
                is_block_start=slot.is_block_start,
                labels=slot.labels,
            )
            i = j
            break
        if merged is not None:
            out.append(merged)
            merged_any = True
        else:
            out.append(slot)
            i += 1
    return out, merged_any


class BriscBuilder:
    """Runs the greedy construction over one program.

    ``prune=False`` disables the incremental rescan and re-scores every
    candidate every pass (the pre-optimization behaviour, kept as the
    reference for determinism tests).
    """

    def __init__(
        self,
        program: VMProgram,
        k: int = 20,
        abundant_memory: bool = False,
        max_passes: int = 40,
        prune: bool = True,
        journal: bool = False,
    ) -> None:
        t0 = time.perf_counter()
        self.slots = build_slots(program)
        self.k = k
        self.cost = CostModel(abundant_memory)
        self.max_passes = max_passes
        self.prune = prune
        self.seen: set = set()
        self.dictionary: List[DictPattern] = []
        self.candidates_tested = 0
        self.passes = 0
        self.pass_stats: List[PassStats] = []
        self._tables = _ScanTables()
        # Incremental-scan state, keyed by the tables' dense candidate
        # ids: per-function raw contributions, their merged totals, the
        # live (positive-benefit) candidate set, which ids are already
        # dictionary members (and how many of those sit in the merged
        # map), and the functions the last rewrite touched.  All
        # maintained so the merged map always equals what a full rescan
        # would produce.
        self._fn_savings: Optional[List[Dict[int, int]]] = None
        self._savings: Dict[int, int] = {}
        self._live: Set[int] = set()
        self._dict_ids: Set[int] = set()
        self._dict_overlap = 0
        self._changed: Set[int] = set()
        # Replay journal: records each pass's savings deltas, live set,
        # and admissions so an edited program can replay this build (see
        # :mod:`repro.brisc.journal`).  ``prune=False`` never computes
        # per-function deltas, so it skips recording.
        self._journal = None
        if journal and prune:
            from .journal import BuildJournal

            self._journal = BuildJournal(
                config_sig=_config_sig(k, abundant_memory, max_passes),
                interned=self._tables.interned,
            )
        self._seed_base_patterns()
        self.base_patterns = len(self.dictionary)
        # Slotting and seeding precede the first pass; run() charges
        # them to it, so BuildResult.seconds is wall time.
        self._setup_seconds = time.perf_counter() - t0

    def _seed_base_patterns(self) -> None:
        journal = self._journal
        intern = self._tables.interned.intern_pattern
        for fn in self.slots.functions:
            # Every base pattern gets its cid up front, so dictionary
            # membership is a plain cid-set lookup from the first scan on.
            seed = [intern(slot.pattern) for slot in fn.slots]
            if journal is not None:
                journal.base_seed.append(seed)
            for cid in seed:
                self._admit(cid)

    def _admit(self, cid: int) -> None:
        if cid not in self._dict_ids:
            self._dict_ids.add(cid)
            self.dictionary.append(self._tables.patterns[cid])
            if cid in self._savings:
                self._dict_overlap += 1
            self._live.discard(cid)

    # -- candidate generation ----------------------------------------------

    def _augmented_set(self, slot: Slot) -> List[DictPattern]:
        """The slot's augmented operand-specialization set (memoized)."""
        parts = self._tables.interned.parts
        return [DictPattern(tuple([parts[p] for p in entry.key]))
                for entry in _priced_set(slot, self._tables)]

    def _adjust(self, cid: int, delta: int) -> None:
        """Apply one candidate's savings delta to the merged map,
        maintaining the live set, the dictionary-overlap count, and the
        paper's candidates-tested counter exactly as a full rescan
        would."""
        savings = self._savings
        current = savings.get(cid)
        if current is None:
            if delta <= 0:
                return
            savings[cid] = delta
            if cid in self._dict_ids:
                self._dict_overlap += 1
            else:
                if cid not in self.seen:
                    self.seen.add(cid)
                    self.candidates_tested += 1
                if self._tables.interned.clears_floor(cid, delta, self.cost):
                    self._live.add(cid)
            return
        value = current + delta
        if value <= 0:
            del savings[cid]
            if cid in self._dict_ids:
                self._dict_overlap -= 1
            else:
                self._live.discard(cid)
            return
        savings[cid] = value
        if cid not in self._dict_ids:
            if self._tables.interned.clears_floor(cid, value, self.cost):
                self._live.add(cid)
            else:
                self._live.discard(cid)

    def _scan_functions(
        self, indices: Iterable[int]
    ) -> List[Tuple[int, Dict[int, int]]]:
        """Raw per-function savings (id-keyed) for the given indices."""
        functions = self.slots.functions
        out: List[Tuple[int, Dict[int, int]]] = []
        for index in indices:
            savings: Dict[int, int] = {}
            _scan_slots(functions[index].slots, savings, self._tables)
            out.append((index, savings))
        return out

    def _refresh_savings(self) -> None:
        """Bring the merged savings map up to date for this pass.

        The first pass (and every pass when ``prune=False``) scans every
        function; later passes re-scan only the functions the previous
        rewrite changed, subtracting each one's stale contribution and
        adding the fresh one.  Both paths produce the same merged map.
        """
        functions = self.slots.functions
        if self._fn_savings is None or not self.prune:
            self._fn_savings = [{} for _ in functions]
            self._savings = {}
            self._live = set()
            self._dict_overlap = 0
            self._apply_rescan(self._scan_functions(range(len(functions))))
        elif self._changed:
            self._apply_rescan(self._scan_functions(sorted(self._changed)))
        self._changed = set()

    def _apply_rescan(
        self, scanned: List[Tuple[int, Dict[int, int]]]
    ) -> None:
        assert self._fn_savings is not None
        journal = self._journal
        record = journal.passes[-1].deltas if journal is not None else None
        for index, fresh in scanned:
            stale = self._fn_savings[index]
            for cid, value in stale.items():
                if cid not in fresh:
                    self._adjust(cid, -value)
            for cid, value in fresh.items():
                delta = value - stale.get(cid, 0)
                if delta:
                    self._adjust(cid, delta)
            if record is not None:
                # Net per-function delta (fresh − stale): replaying these
                # in sequence reproduces the merged savings map exactly,
                # because merging is plain addition.
                net = {cid: -v for cid, v in stale.items()
                       if cid not in fresh}
                for cid, value in fresh.items():
                    delta = value - stale.get(cid, 0)
                    if delta:
                        net[cid] = delta
                record.append((index, net))
            self._fn_savings[index] = fresh

    # -- rewriting -----------------------------------------------------------

    def _apply_patterns(self, admitted: List[DictPattern]) -> Set[int]:
        """Rewrite every function with the newly admitted patterns.

        Returns the indices of functions whose slots actually changed —
        the only ones whose candidate contributions the next pass must
        re-scan.
        """
        changed: Set[int] = set()
        combos_by_first, singles_by_shape = prepare_rewrite(admitted)
        for index, fn in enumerate(self.slots.functions):
            if rewrite_function(fn, combos_by_first, singles_by_shape):
                changed.add(index)
        return changed

    # -- driver ------------------------------------------------------------

    def run(self) -> BuildResult:
        journal = self._journal
        interned = self._tables.interned
        patterns = interned.patterns
        setup = self._setup_seconds
        while self.passes < self.max_passes:
            self.passes += 1
            t0 = time.perf_counter()
            journal_pass = None
            if journal is not None:
                from .journal import PassJournal

                journal_pass = PassJournal()
                journal.passes.append(journal_pass)
            self._refresh_savings()
            savings = self._savings
            # Snapshot before admission: the pass's candidate count is
            # the merged map minus patterns already admitted when the
            # scan ran, exactly what the full-rescan filter reported.
            candidates = len(savings) - self._dict_overlap
            if journal_pass is not None:
                journal_pass.candidates = candidates
                journal_pass.live = sorted(self._live)
            # The live set is exactly {cand : benefit(cand) > 0} and
            # benefit == savings - floor, so the heap (and therefore
            # the admission order) matches a full benefit sweep.  The
            # tie-break keys come from the pattern objects, and distinct
            # patterns print differently, so the trailing cid never
            # orders two entries: the order is invariant under id
            # assignment.
            heap = []
            for cid in self._live:
                cand = patterns[cid]
                heap.append((interned.floor(cid, self.cost) - savings[cid],
                             cand.dictionary_size(), str(cand), cid))
            heapq.heapify(heap)
            admitted: List[int] = []
            while heap and len(admitted) < self.k:
                cid = heapq.heappop(heap)[-1]
                admitted.append(cid)
                self._admit(cid)
            if journal_pass is not None:
                journal_pass.admitted = list(admitted)
            if admitted:
                self._changed = self._apply_patterns(
                    [patterns[cid] for cid in admitted])
            self.pass_stats.append(PassStats(
                candidates=candidates,
                admitted=len(admitted),
                seconds=setup + time.perf_counter() - t0,
            ))
            setup = 0.0
            if len(admitted) < self.k:
                break
        if journal is not None:
            journal.seen = sorted(self.seen)
            journal.candidates_tested = self.candidates_tested
        return BuildResult(
            slots=self.slots,
            dictionary=self.dictionary,
            candidates_tested=self.candidates_tested,
            passes=self.passes,
            base_patterns=self.base_patterns,
            pass_stats=self.pass_stats,
            journal=journal,
        )


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
