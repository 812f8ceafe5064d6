"""End-to-end corpus build timing — the BRISC-bottleneck acceptance metric.

Compiling the three suite units cold through every compressed format is
dominated by the BRISC stage's greedy dictionary construction.  This
bench builds the corpus from source through a fresh (memory-cache)
toolchain, timing the incremental-pruning + table-driven builder, and
lands the row in ``corpus_build.txt``.

The PR 5 baseline row is the same cold measurement taken with the
pre-pruning builder (commit 416ff87) on the host that wrote the results
table; the cold build must now beat it by at least 2x.
"""

import time

from conftest import save_table

from repro.bench import render_table

#: BRISC-stage seconds for the cold corpus build with the PR 5 builder
#: (commit 416ff87: table-driven kernels, no candidate pruning, no
#: candidate interning), measured on the results-table host.
PR5_BRISC_SECONDS = 89.7

UNITS = ("wc", "lcc", "gcc")


def test_corpus_build_timings(results_dir):
    from repro.corpus import suite_source
    from repro.pipeline import Toolchain

    units = [(name, suite_source(name)) for name in UNITS]
    tc = Toolchain()
    t0 = time.perf_counter()
    for name, source in units:
        tc.compile(source, name=name, stages=("wire", "brisc", "deflate"))
    cold_wall = time.perf_counter() - t0
    cold_brisc = tc.stats()["stages"]["brisc"]["seconds"]

    rows = [
        ("cold, PR 5 builder (416ff87)", PR5_BRISC_SECONDS,
         PR5_BRISC_SECONDS, len(units)),
        ("cold", cold_wall, cold_brisc, len(units)),
    ]
    save_table(results_dir, "corpus_build", render_table(
        ["corpus build", "seconds", "brisc s", "units"],
        [[v, f"{w:8.2f}", f"{b:8.2f}", str(u)] for v, w, b, u in rows],
    ))

    # Tentpole acceptance: >= 2x faster than the PR 5 builder cold.
    assert cold_brisc * 2 <= PR5_BRISC_SECONDS
