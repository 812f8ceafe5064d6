"""Shared benchmark configuration.

Heavy artifacts (suite compilation, BRISC dictionaries) come from the
shared pipeline toolchain (:func:`repro.pipeline.default_toolchain`),
whose content-addressed cache means benchmark functions only re-run the
cheap kernel under measurement.  Every table printed here is also written
to ``benchmarks/results/`` for EXPERIMENTS.md.  The provenance-stamped,
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


def save_table(results_dir, name: str, text: str) -> None:
    """Persist a rendered table and echo it to the terminal."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}")
