"""Journaled BRISC builds: record a build's trajectory, replay it on an
edited program.

The greedy builder's state is function-separable: the merged savings map
is a plain sum of per-function contributions (:mod:`.builder` maintains
it that way for the incremental rescan), each pass's admissions are a
function of the merged map, and the final image bytes depend only on the
final slots and globals (:func:`repro.brisc.encode.encode_image` derives
the Markov model and symbol tables from them).  So a build journal holds
each function's base seed (its base-pattern ids), per pass each
re-scanned function's **net savings delta** and the admitted candidate
ids, and the intern state that gives those ids their meaning.

:func:`replay_build` runs :class:`~repro.brisc.builder.BriscBuilder`'s
own pass loop on the edited program.  Each unchanged function keeps its
previous final slots and feeds its recorded delta through the same merge
a scanned delta goes through, and only changed functions are scanned and
rewritten.  That merge keeps the savings map, the candidates-tested set
and the live set exact, so no count needs correcting.  Each pass's
admissions must equal the recorded list, order included; any divergence
(the edit changed which patterns win) ends the replay, and the caller
falls back to a cold build.  A replay that admits the recorded sequence
in every pass leaves every unchanged function with exactly its previous
final slots and every changed function rewritten as a cold build would
rewrite it: the same slot program, and therefore a byte-identical image.

Fresh scans intern into the journal's id space: new patterns introduced
by the edit are interned append-only, which keeps every previously
assigned id stable.  The scan's tables (instruction and slot ids, rows,
rewrite memos) are not shared: they belong to one build, and would grow
the pickled journal by more than half.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..vm.instr import VMProgram
from .builder import (
    BriscBuilder, BuildResult, _config_sig, _instr_identity, _InternState,
)

__all__ = [
    "BuildJournal", "PassJournal", "changed_functions",
    "incremental_compress", "replay_build",
]


@dataclass
class PassJournal:
    """One greedy pass's replayable state.

    ``deltas`` holds ``(function index, net savings delta)`` for every
    function re-scanned that pass, in ascending function order — fresh
    contribution minus stale, so summing deltas in sequence reproduces
    the merged savings map exactly.  ``admitted`` lists the candidate
    ids the pass admitted, in admission order.
    """

    deltas: List[Tuple[int, Dict[int, int]]] = field(default_factory=list)
    admitted: List[int] = field(default_factory=list)


@dataclass
class BuildJournal:
    """A whole build's trajectory, keyed in the build's candidate-id
    space (``interned`` is the builder's intern state).

    ``base_seed`` records each function's initial slot-pattern ids in
    slot order, so a replay seeds the dictionary from it for every
    function it does not re-slot.
    """

    config_sig: str
    interned: _InternState
    base_seed: List[List[int]] = field(default_factory=list)
    passes: List[PassJournal] = field(default_factory=list)


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
    return BriscBuilder(program, k, abundant_memory, max_passes,
                        journal=journal, prev=prev, changed=changed).run()


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
