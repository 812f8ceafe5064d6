"""Shared benchmark configuration.

Heavy artifacts (suite compilation, BRISC dictionaries) come from the
shared pipeline toolchain (:func:`repro.pipeline.default_toolchain`),
whose content-addressed cache means benchmark functions only re-run the
cheap kernel under measurement.  Every table printed here is also written
to ``benchmarks/results/`` for EXPERIMENTS.md, along with the pipeline's
per-stage run/hit accounting for the session.

``pipeline_stats.txt`` describes exactly one session: rows from earlier
sessions (or commits) are never carried forward.  The provenance-stamped,
repeated record of performance is the ``perfbench/`` benchmark.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def toolchain():
    """The shared pipeline toolchain benchmarks compile through."""
    from repro.pipeline import default_toolchain

    return default_toolchain()


#: Rows appended by corpus-build benchmarks: (variant, wall seconds,
#: BRISC-stage seconds, units compiled).  One table row per end-to-end
#: corpus build, the tentpole acceptance metric.
_CORPUS_TIMINGS = []


@pytest.fixture(scope="session")
def corpus_timings():
    """Collector for end-to-end corpus-build wall-clock rows."""
    return _CORPUS_TIMINGS


#: Per-stage stats folded from *private* toolchains.  Benchmarks that
#: compile through fresh Toolchain instances (cold-cache measurements)
#: must fold their stats here, or the stages they demonstrably ran would
#: show up as ``0 runs`` in pipeline_stats.txt.
_SESSION_STAGE_STATS = {}

_STAGE_ROW_KEYS = ("runs", "cache_hits", "seconds", "bytes", "replays")


@pytest.fixture(scope="session")
def fold_stage_stats():
    """Fold one toolchain's ``stats()["stages"]`` into the session report."""
    def fold(stages):
        for name, row in stages.items():
            mine = _SESSION_STAGE_STATS.setdefault(
                name, dict.fromkeys(_STAGE_ROW_KEYS, 0))
            for key in _STAGE_ROW_KEYS:
                mine[key] += row.get(key, 0)
    return fold


@pytest.fixture(scope="session", autouse=True)
def pipeline_stats_report(results_dir):
    """Write this session's per-stage pipeline stats next to the tables."""
    yield
    from repro.bench.tables import render_table, toolchain_stats_table
    from repro.pipeline import default_toolchain

    stats = default_toolchain().stats()
    # The shared toolchain plus whatever private toolchains were folded in.
    stages = {name: dict(row) for name, row in stats["stages"].items()}
    for name, extra in _SESSION_STAGE_STATS.items():
        mine = stages.setdefault(name, dict.fromkeys(_STAGE_ROW_KEYS, 0))
        for key in _STAGE_ROW_KEYS:
            mine[key] += extra[key]
    for row in stages.values():
        total = row["runs"] + row["cache_hits"]
        row["hit_rate"] = row["cache_hits"] / total if total else 0.0

    text = toolchain_stats_table(
        {"stages": stages, "brisc_builder": stats.get("brisc_builder")})
    if _CORPUS_TIMINGS:
        text += "\n\n" + render_table(
            ["corpus build", "seconds", "brisc s", "units"],
            [[variant, f"{seconds:8.2f}", f"{brisc:8.2f}", str(units)]
             for variant, seconds, brisc, units in _CORPUS_TIMINGS],
        )
    save_table(results_dir, "pipeline_stats", text)


def save_table(results_dir, name: str, text: str) -> None:
    """Persist a rendered table and echo it to the terminal."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}")
