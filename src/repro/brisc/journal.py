"""Journaled BRISC builds: record a build's trajectory, replay it on an
edited program.

The greedy builder's state is function-separable: the merged savings map
is a plain sum of per-function contributions (:mod:`.builder` maintains
it that way for the incremental rescan), the admission heap is a pure
function of the merged map, and the final image bytes depend only on the
final slots and globals (:func:`repro.brisc.encode.encode_image` derives
the Markov model and symbol tables from them).  So a build journal that
stores, per pass, each function's **net savings delta** plus the live
set and the admitted candidate ids contains everything needed to re-run
the build for a program in which only a few functions changed:

* unchanged functions replay their recorded deltas (integer adds);
* changed functions are actually re-scanned, and the difference between
  their fresh and recorded contributions is tracked per candidate;
* each pass's admissions are re-derived from the patched savings map and
  **verified against the recorded admissions** — any divergence (the
  edit changed which patterns win) aborts the replay and the caller
  falls back to a cold build.

Because admissions are verified pass by pass, a successful replay ends
with every unchanged function holding exactly its previous final slots
and every changed function rewritten under the identical admission
sequence — i.e. the same slot program a cold build of the edited source
would produce, and therefore a byte-identical image.

Candidate ids are shared with the recorded build's intern state (the
journal holds it: part ids, the part-key → cid map, dictionary bytes and
admission floors), so replay deltas, fresh scans, and recorded deltas
all speak the same id space; new patterns introduced by the edit are
interned append-only, which keeps every previously assigned id stable.
The scan's tables (instruction and slot ids, rows, rewrite memos) are
not shared: they belong to one build, and would grow the pickled journal
by more than half.  A changed function is scanned the way the builder
scans it, as a list of row keys whose changed rows make its net delta.
The journal's per-pass delta order is canonicalized to ascending
function index on replay, matching a cold build's scan order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..vm.instr import VMProgram
from .builder import (
    BuildResult,
    PassStats,
    _admissions,
    _config_sig,
    _instr_identity,
    _InternState,
    _RowKey,
    _ScanTables,
)
from .cost import CostModel
from .pattern import DictPattern
from .slots import SlotFunction, SlotProgram, build_slot_function

__all__ = [
    "BuildJournal", "PassJournal", "changed_functions",
    "incremental_compress", "replay_build",
]


@dataclass
class PassJournal:
    """One greedy pass's replayable state.

    ``deltas`` holds ``(function index, net savings delta)`` for every
    function re-scanned that pass — fresh contribution minus stale, so
    summing deltas in sequence reproduces the merged savings map
    exactly.  ``live`` and ``admitted`` are boundary snapshots (candidate
    ids); ``candidates`` is the pass's reported candidate count.
    """

    deltas: List[Tuple[int, Dict[int, int]]] = field(default_factory=list)
    live: List[int] = field(default_factory=list)
    admitted: List[int] = field(default_factory=list)
    candidates: int = 0


@dataclass
class BuildJournal:
    """A whole build's trajectory, keyed in the build's candidate-id
    space (``interned`` is the builder's intern state).

    ``base_seed`` records each function's initial slot-pattern ids in
    slot order, so replay can reconstruct the seeded dictionary — and
    the membership differences an edit introduces — without the original
    program.  ``seen`` is the final candidates-tested id set.
    """

    config_sig: str
    interned: _InternState
    base_seed: List[List[int]] = field(default_factory=list)
    passes: List[PassJournal] = field(default_factory=list)
    seen: List[int] = field(default_factory=list)
    candidates_tested: int = 0


def changed_functions(
    old: VMProgram, new: VMProgram
) -> Optional[Set[int]]:
    """Indices of functions that differ between two programs.

    Returns ``None`` when the programs are not alignable (different
    function counts, or a rename/reorder) — replay needs a stable
    index ↔ function correspondence, so those edits take the cold path.
    """
    if len(old.functions) != len(new.functions):
        return None
    changed: Set[int] = set()
    for i, (a, b) in enumerate(zip(old.functions, new.functions)):
        if a is b:
            continue
        if a.name != b.name:
            return None
        if (a.labels != b.labels or a.frame_size != b.frame_size
                or a.param_bytes != b.param_bytes
                or list(map(_instr_identity, a.code))
                != list(map(_instr_identity, b.code))):
            changed.add(i)
    return changed


def replay_build(
    program: VMProgram,
    prev: BuildResult,
    changed: Set[int],
    k: int = 20,
    abundant_memory: bool = False,
    max_passes: int = 40,
    journal: bool = True,
) -> Optional[BuildResult]:
    """Replay ``prev``'s journaled build for ``program``.

    ``changed`` holds the indices of functions whose VM code differs
    from the build ``prev`` compressed (see :func:`changed_functions`);
    every other function's slots and candidate contributions are taken
    from the journal.  Returns ``None`` whenever the replay cannot
    guarantee byte-identity with a cold build — missing/mismatched
    journal, or an admission sequence the edit perturbed — in which case
    the caller should build cold.
    """
    j: Optional[BuildJournal] = prev.journal  # type: ignore[assignment]
    if j is None or j.config_sig != _config_sig(k, abundant_memory,
                                                max_passes):
        return None
    if not hasattr(j, "interned"):
        return None  # unpickled from before the intern state existed
    functions = program.functions
    if (len(functions) != len(prev.slots.functions)
            or len(j.base_seed) != len(functions)):
        return None
    if not changed:
        return prev
    t0 = time.perf_counter()

    interned = j.interned
    pattern = interned.pattern
    cost = CostModel(abundant_memory)

    # Fresh scans intern straight into the journal's id space: shared
    # intern state means recorded deltas and replayed deltas agree on
    # every id, and appends never disturb an existing id.
    tables = _ScanTables(interned)

    # -- dictionary seeding (mirrors BriscBuilder._seed_base_patterns) --
    new_fns: Dict[int, SlotFunction] = {
        i: build_slot_function(functions[i]) for i in changed
    }
    sids: Dict[int, List[int]] = {}
    dictionary: List[DictPattern] = []
    dict_cids: Set[int] = set()
    base_seed: List[List[int]] = []
    for i in range(len(functions)):
        if i in changed:
            seed, sids[i] = tables.seed(new_fns[i])
        else:
            seed = j.base_seed[i]
        base_seed.append(seed)
        for cid in seed:
            if cid not in dict_cids:
                dict_cids.add(cid)
                dictionary.append(pattern(cid))
    base_patterns = len(dictionary)

    # Base-membership differences introduced by the edit.  ``d_add``
    # patterns are members now but were candidates in the recorded
    # build (and vice versa for ``d_rem``); both perturb the recorded
    # candidate counts and live sets, so they start out "touched".
    record_base = {cid for seed in j.base_seed for cid in seed}
    replay_base = {cid for seed in base_seed for cid in seed}
    d_add = replay_base - record_base
    d_rem = record_base - replay_base

    # -- replay state ---------------------------------------------------
    # ``M`` is the full merged savings map (zeros retained; the recorded
    # builder's map holds exactly its positive entries, and the merged
    # value — a sum of nonnegative per-function maps — never dips below
    # zero between per-function delta applications).  ``touched``
    # accumulates every candidate whose replay value or membership can
    # differ from the recorded build's; for those we track the recorded
    # value via OC − NC (recorded minus fresh changed-function
    # contributions) and re-derive liveness ourselves.  ``seen`` is
    # re-derived from scratch: the builder marks a candidate tested when
    # its merged value is first inserted positive while not a dictionary
    # member, which is exactly a 0→positive transition here, so walking
    # the same per-function deltas in the same (ascending) order
    # reproduces the cold build's candidates-tested set.
    M: Dict[int, int] = {}
    touched: Set[int] = set(d_add | d_rem)
    NC: Dict[int, int] = {}
    OC: Dict[int, int] = {}
    row_keys: Dict[int, List[_RowKey]] = {i: [] for i in changed}
    seen: Set[int] = set()
    ties: Dict[int, Tuple[int, str, int]] = {}
    new_passes: List[PassJournal] = []
    pass_stats: List[PassStats] = []
    touch = touched.add

    rescan: Set[int] = set(changed)  # pass 1 scans every function
    last = len(j.passes) - 1
    for p, jp in enumerate(j.passes):
        tp = time.perf_counter()
        j_by_fn: Dict[int, Dict[int, int]] = dict(jp.deltas)
        new_deltas: List[Tuple[int, Dict[int, int]]] = []
        mget = M.get
        for i in sorted(set(j_by_fn) | rescan):
            if i not in changed:
                delta = j_by_fn[i]
                for cid, d in delta.items():
                    prevv = mget(cid, 0)
                    val = prevv + d
                    M[cid] = val
                    if prevv == 0 and val > 0 and cid not in dict_cids:
                        seen.add(cid)
                new_deltas.append((i, delta))
                continue
            if i in rescan:
                keys = tables.row_keys(new_fns[i].slots, sids[i])
                net = tables.delta(row_keys[i], keys)
                row_keys[i] = keys
                for cid, d in net.items():
                    touch(cid)
                    NC[cid] = NC.get(cid, 0) + d
                    prevv = mget(cid, 0)
                    val = prevv + d
                    M[cid] = val
                    if prevv == 0 and val > 0 and cid not in dict_cids:
                        seen.add(cid)
                new_deltas.append((i, net))
            if i in j_by_fn:
                for cid, d in j_by_fn[i].items():
                    touch(cid)
                    OC[cid] = OC.get(cid, 0) + d

        # Candidate count: correct the recorded count for every touched
        # candidate whose positivity or membership differs between the
        # replayed map and the recorded one.
        candidates = jp.candidates
        for cid in touched:
            m_rep = M.get(cid, 0)
            m_rec = m_rep - NC.get(cid, 0) + OC.get(cid, 0)
            rep_member = cid in dict_cids
            rec_member = ((rep_member and cid not in d_add)
                          or cid in d_rem)
            if m_rep > 0 and not rep_member:
                candidates += 1
            if m_rec > 0 and not rec_member:
                candidates -= 1

        # Live set: the recorded live set minus touched candidates, plus
        # every touched candidate that currently clears its floor (the
        # builder's liveness is exactly that predicate).
        live = [cid for cid in jp.live if cid not in touched]
        for cid in touched:
            if (cid not in dict_cids
                    and interned.clears_floor(cid, M.get(cid, 0), cost)):
                live.append(cid)

        # Admissions, ranked exactly as the cold builder ranks them.
        admitted_cids = _admissions(live, M, interned, cost, k, ties)
        # The pass must admit exactly the recorded sequence: rewriting
        # tries candidates in admission order, so even a reorder within
        # a pass can change a tie-break — and with it the slots the
        # recorded deltas of unchanged functions were measured against.
        # Any divergence means the edit perturbed what wins: build cold.
        if admitted_cids != jp.admitted:
            return None
        for cid in admitted_cids:
            if cid not in dict_cids:
                dict_cids.add(cid)
                dictionary.append(pattern(cid))

        # Rewrite only the changed functions; unchanged functions'
        # recorded final slots already reflect every admission.
        rescan = set()
        if admitted_cids:
            rewrite = tables.prepare_rewrite(admitted_cids)
            for i in changed:
                if tables.rewrite(new_fns[i], sids[i], rewrite):
                    rescan.add(i)

        pass_stats.append(PassStats(
            candidates=candidates,
            admitted=len(admitted_cids),
            seconds=time.perf_counter() - tp,
        ))
        if journal:
            new_passes.append(PassJournal(
                deltas=new_deltas,
                live=sorted(live),
                admitted=admitted_cids,
                candidates=candidates,
            ))
        if len(admitted_cids) < k:
            if p != last:
                return None  # inconsistent journal
            break
    else:
        # Every recorded pass admitted a full K, i.e. the recorded build
        # stopped on max_passes; so does the replay.
        pass

    # Charge setup/seeding time (everything outside the per-pass loop
    # bodies) to the first pass, so BuildResult.seconds is wall time.
    if pass_stats:
        extra = (time.perf_counter() - t0
                 - sum(s.seconds for s in pass_stats))
        first = pass_stats[0]
        pass_stats[0] = PassStats(
            candidates=first.candidates,
            admitted=first.admitted,
            seconds=first.seconds + max(0.0, extra),
        )

    slots = SlotProgram(program.name, entry=program.entry)
    for i, fn in enumerate(prev.slots.functions):
        slots.functions.append(new_fns[i] if i in changed else fn)

    new_journal: Optional[BuildJournal] = None
    if journal:
        new_journal = BuildJournal(
            config_sig=j.config_sig,
            interned=interned,
            base_seed=base_seed,
            passes=new_passes,
            seen=sorted(seen),
            candidates_tested=len(seen),
        )
    return BuildResult(
        slots=slots,
        dictionary=dictionary,
        candidates_tested=len(seen),
        passes=len(pass_stats),
        base_patterns=base_patterns,
        pass_stats=pass_stats,
        journal=new_journal,
    )


def incremental_compress(
    program: VMProgram,
    prev_program: VMProgram,
    prev_build: BuildResult,
    k: int = 20,
    abundant_memory: bool = False,
    max_passes: int = 40,
    journal: bool = True,
):
    """Compress ``program`` by replaying ``prev_build``'s journal.

    ``prev_program`` is the program ``prev_build`` compressed; the two
    are aligned function-by-function to find the edited set.  Returns a
    :class:`repro.brisc.CompressedProgram` byte-identical to a cold
    ``compress(program, ...)``, or ``None`` when replay cannot guarantee
    that (the caller should compress cold).
    """
    changed = changed_functions(prev_program, program)
    if changed is None:
        return None
    build = replay_build(program, prev_build, changed, k=k,
                         abundant_memory=abundant_memory,
                         max_passes=max_passes, journal=journal)
    if build is None:
        return None
    from . import CompressedProgram
    from .encode import encode_image

    image, model = encode_image(build.slots, program.globals)
    return CompressedProgram(image=image, build=build, model=model)
