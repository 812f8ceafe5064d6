"""Incremental recompilation: a one-function edit vs a cold rebuild.

The acceptance metric of the incremental-compilation change: editing one
constant in one lcc function and recompiling with ``compile(prev=...)``
must be at least 5x faster than a cold build of the edited source, while
producing **byte-identical** artifacts at every binary stage (wire,
deflate, BRISC image, VM encoding).  The speedup comes from re-lexing,
re-parsing, re-checking and re-lowering only the edited function,
sharing every other function's IR, VM code, patternized wire trees and
VM bytes, and replaying the recorded BRISC builder journal instead of
re-running the greedy pattern search.  MTF, Huffman, LZ, deflate and
the BRISC image encoder still run over the whole unit.  The gate reads
the median ratio of three rounds, each on fresh toolchains, alternating
which side runs first; every round's ratio is in the table.
"""

import statistics
import time

from conftest import save_table
from repro.bench.tables import render_table
from repro.corpus import suite_source
from repro.pipeline import Toolchain

UNIT = "lcc"

#: next_rand's LCG multiplier.  The edit changes one literal in one
#: function body; the resulting savings perturbation leaves the builder's
#: admission sequence intact, so the journal replay path stays warm (an
#: edit that reorders admissions falls back to a cold build by design).
OLD_CONST = "1103515245"
NEW_CONST = "1103515249"

#: Timed rounds behind the gated median.  One ratio swung from 4.4x to
#: 6.6x between two runs of the same code.
ROUNDS = 3


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _round(source, edited, config, delta_first):
    """One timed round on fresh toolchains (a repeat on the same
    toolchain would hit its cache): the journaled cold build the edit
    starts from, then the incremental rebuild and the honest baseline, a
    cold build of the edited source on an empty cache, in the given
    order."""
    tc = Toolchain()
    cold, cold_seconds = _timed(
        lambda: tc.compile(source, name=UNIT, config=config))
    runs = {
        "delta": lambda: tc.compile(edited, name=UNIT, config=config,
                                    prev=cold),
        "fresh": lambda: Toolchain().compile(edited, name=UNIT,
                                             config=config),
    }
    order = ("delta", "fresh") if delta_first else ("fresh", "delta")
    timed = {side: _timed(runs[side]) for side in order}
    return cold_seconds, timed["delta"], timed["fresh"]


def test_one_function_edit_speedup(results_dir):
    source = suite_source(UNIT)
    assert OLD_CONST in source
    # Replace the first occurrence only (it sits in next_rand); the
    # constant also appears in an unrelated sample function.
    edited = source.replace(OLD_CONST, NEW_CONST, 1)
    config = Toolchain().config.with_journal()

    rows, speedups = [], []
    for i in range(ROUNDS):
        cold_seconds, (delta, delta_seconds), (fresh, fresh_seconds) = \
            _round(source, edited, config, delta_first=i % 2 == 0)

        # Byte identity at every binary stage — the incremental path may
        # be fast only because it is *exactly* the cold build, replayed.
        assert delta.brisc.image.blob == fresh.brisc.image.blob
        assert delta.wire_blob == fresh.wire_blob
        assert delta.deflated == fresh.deflated
        assert delta.vm_code_bytes == fresh.vm_code_bytes

        brisc_meta = delta.artifacts["brisc"].meta
        assert brisc_meta.get("replayed") is True
        assert brisc_meta["changed_functions"] == 1
        assert delta.artifacts["parse"].meta.get("reparsed_functions") == 1
        assert delta.artifacts["lower"].meta.get("relowered_functions") == 1
        assert delta.artifacts["lower"].meta.get("derived") is True
        assert delta.artifacts["codegen"].meta.get("derived") is True

        speedups.append(fresh_seconds / delta_seconds)
        first = "incremental" if i % 2 == 0 else "cold (edited)"
        rows.append([str(i + 1), first, f"{cold_seconds:8.2f}",
                     f"{fresh_seconds:8.2f}", f"{delta_seconds:8.2f}",
                     f"{speedups[-1]:.1f}x"])

    speedup = statistics.median(speedups)
    rows.append(["median", "", "", "", "", f"{speedup:.1f}x"])
    # The table is written before the speed gate, so a failing run still
    # leaves what it measured.
    save_table(results_dir, "incremental", render_table(
        ["round", "runs first", f"{UNIT} cold (journaled) s",
         "cold (edited) s", "incremental s", "speedup"],
        rows,
    ))
    assert speedup >= 5.0, (
        f"incremental rebuild only {speedup:.1f}x faster in the median "
        f"of {ROUNDS} rounds ({', '.join(f'{r:.1f}x' for r in speedups)})")
