"""Incremental recompilation: a one-function edit vs a cold rebuild.

The acceptance metric of the incremental-compilation change: editing one
constant in one lcc function and recompiling with ``compile(prev=...)``
must be at least 5x faster than a cold build of the edited source, while
producing **byte-identical** artifacts at every binary stage (wire,
deflate, BRISC image, VM encoding).  The speedup comes from sharing
every function whose lowered IR is unchanged, so its VM code is reused,
and replaying the recorded BRISC builder journal instead of re-running
the greedy pattern search.  Parse, sema and lower still run over the
whole unit, once each.
"""

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


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_one_function_edit_speedup(results_dir):
    source = suite_source(UNIT)
    assert OLD_CONST in source
    # Replace the first occurrence only (it sits in next_rand); the
    # constant also appears in an unrelated sample function.
    edited = source.replace(OLD_CONST, NEW_CONST, 1)

    tc = Toolchain()
    config = tc.config.with_journal()
    cold, cold_seconds = _timed(
        lambda: tc.compile(source, name=UNIT, config=config))
    delta, delta_seconds = _timed(
        lambda: tc.compile(edited, name=UNIT, config=config, prev=cold))

    # The honest baseline: the same edited source, cold, on a toolchain
    # with an empty cache.
    fresh_tc = Toolchain()
    fresh, fresh_seconds = _timed(
        lambda: fresh_tc.compile(edited, name=UNIT, config=config))

    # Byte identity at every binary stage — the incremental path may be
    # fast only because it is *exactly* the cold build, replayed.
    assert delta.brisc.image.blob == fresh.brisc.image.blob
    assert delta.wire_blob == fresh.wire_blob
    assert delta.deflated == fresh.deflated
    assert delta.vm_code_bytes == fresh.vm_code_bytes

    brisc_meta = delta.artifacts["brisc"].meta
    assert brisc_meta.get("replayed") is True
    assert brisc_meta["changed_functions"] == 1
    assert delta.artifacts["lower"].meta.get("derived") is True
    assert delta.artifacts["codegen"].meta.get("derived") is True

    speedup = fresh_seconds / delta_seconds
    assert speedup >= 5.0, (
        f"incremental rebuild only {speedup:.1f}x faster "
        f"({delta_seconds:.2f}s vs {fresh_seconds:.2f}s cold)")

    save_table(results_dir, "incremental", render_table(
        ["build", "seconds", "speedup", "identical"],
        [
            [f"{UNIT} cold (journaled)", f"{cold_seconds:8.2f}", "", ""],
            [f"{UNIT} cold (edited)", f"{fresh_seconds:8.2f}", "1.0x", ""],
            [f"{UNIT} incremental", f"{delta_seconds:8.2f}",
             f"{speedup:.1f}x", "yes"],
        ],
    ))
