"""Self-tests of the benchmark itself.

Counts and sizes must repeat exactly for one seed, change under another
seed, and be the same with tracing on or off; the amount of work must
depend on the seed and ``--seconds`` only; every cold-build unit must
start on a cold builder; the benchmark must refuse to run without the
program; the compare step must pair runs and reach its verdicts.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from common import (  # noqa: E402
    NOMINAL_SECONDS, WORKLOADS, clear_builder_caches, load_repro, scaled,
)
from compare import compare, pair_runs, verdict  # noqa: E402

WORKLOAD = "units-20-40"
SECONDS = 6  # one cold-build unit and a single round of every run-image pass


def _phase(tmp_path, phase, seed, trace):
    result = tmp_path / f"{phase}-{seed}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "phase.py"), "--phase", phase,
         "--workload", WORKLOAD, "--seed", str(seed), "--seconds",
         str(SECONDS), "--trace", str(trace), "--result", str(result)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(result) as f:
        out = json.load(f)
    assert out["failed"] == 0, out["errors"]
    return out


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cold")
    return {(seed, trace): _phase(tmp, "cold-build", seed, trace)
            for seed, trace in ((1, 0), (1, 1), (2, 1))}


@pytest.fixture(scope="module")
def images(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("images")
    return {(seed, trace): _phase(tmp, "run-image", seed, trace)
            for seed, trace in ((1, 0), (1, 1), (2, 0))}


def test_cold_build_counts_repeat_with_tracing_on_or_off(cold):
    plain, traced = cold[1, 0], cold[1, 1]
    assert plain["counts"] == traced["counts"]
    for name in ("brisc.build.passes", "brisc.build.candidates",
                 "brisc.build.admitted"):
        assert traced["trace_counts"][name] == traced["counts"][name]
    assert traced["self_times"]["brisc.cost"]["calls"] > 0


def test_cold_build_counts_move_with_the_seed(cold):
    one, two = cold[1, 1], cold[2, 1]
    for name in ("wire_ratio", "brisc_ratio", "brisc.build.candidates"):
        assert one["counts"][name] != two["counts"][name]
    assert (one["self_times"]["brisc.cost"]["calls"]
            != two["self_times"]["brisc.cost"]["calls"])


def test_cost_model_calls_repeat_for_one_seed(cold, tmp_path):
    again = _phase(tmp_path, "cold-build", 1, 1)
    assert (again["self_times"]["brisc.cost"]["calls"]
            == cold[1, 1]["self_times"]["brisc.cost"]["calls"])
    assert (again["trace_counts"]["native.calls"]
            == cold[1, 1]["trace_counts"]["native.calls"])


def test_work_is_fixed_by_seed_and_seconds(cold, images):
    nominal = WORKLOADS[WORKLOAD]["cold_units"]
    for out in cold.values():
        assert out["ops"] == {"units": scaled(nominal, SECONDS)}
    assert images[1, 0]["ops"] == images[1, 1]["ops"] == images[2, 0]["ops"]
    assert scaled(nominal, NOMINAL_SECONDS) == nominal
    assert scaled(nominal, 2 * NOMINAL_SECONDS) == 2 * nominal
    assert scaled(nominal, 0.1) == 1


def test_builder_caches_are_cleared_between_units():
    repro = load_repro()
    from repro.brisc import pattern

    repro.pipeline.Toolchain().compile(
        repro.corpus.generate_program_source(functions=4, seed=0))
    assert pattern._DICT_SIZE_CACHE and pattern._ENCODED_SIZE_CACHE
    clear_builder_caches(repro)
    assert not pattern._DICT_SIZE_CACHE
    assert not pattern._ENCODED_SIZE_CACHE


def test_run_image_steps_repeat_and_move_with_the_seed(images):
    plain, traced, other = images[1, 0], images[1, 1], images[2, 0]
    assert plain["counts"] == traced["counts"]
    assert traced["trace_counts"]["vm.steps"] == plain["counts"]["vm.steps"]
    assert plain["counts"]["vm.steps"] != other["counts"]["vm.steps"]
    assert (plain["counts"]["brisc.interp.steps"]
            == plain["counts"]["vm.steps"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--seed", "1", "--seconds", "4", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    base = [100.0 + s % 3 for s in range(10)]
    faster = [120.0 + s % 3 for s in range(10)]
    assert verdict(list(zip(base, faster)), "higher", 0.1)[0] == "better"
    assert verdict(list(zip(faster, base)), "higher", 0.1)[0] == "worse"
    assert verdict(list(zip(base, base)), "higher", 0.1)[0] == "unresolved"
    assert verdict(list(zip(base[:3], faster[:3])), "higher",
                   0.5)[0] == "unresolved"


def _records(values_by_seed, t0=0):
    """Result records for ``{seed: [value, ...]}``, one per value."""
    records = []
    for seed, values in values_by_seed.items():
        for k, value in enumerate(values):
            records.append({
                "provenance": {"workload": WORKLOAD, "seed": seed,
                               "timestamp": f"2000-01-01T00:{t0 + k:02d}:00Z"},
                "metrics": {"req_per_s": {"value": value}}})
    return records


def test_compare_pairs_repeated_runs_of_one_seed():
    # Ten runs of one seed on each side: ten pairs, not one.
    base = _records({7: [100.0 + k % 3 for k in range(10)]})
    change = _records({7: [120.0 + k % 3 for k in range(10)]})
    specs = {"req_per_s": {"better": "higher", "bound": 0.1}}
    [row] = compare(base, change, specs)
    assert row["pairs"] == 10
    assert row["verdict"] == "better"
    assert row["won"] == 1.0
    assert pair_runs({7: [1.0, 2.0]}, {7: [3.0, 4.0]}) == [(1.0, 3.0),
                                                           (2.0, 4.0)]


def test_compare_refuses_runs_it_cannot_pair():
    with pytest.raises(ValueError):
        pair_runs({1: [1.0, 2.0]}, {1: [1.0]})
    with pytest.raises(ValueError):
        pair_runs({1: [1.0]}, {2: [1.0]})
    specs = {"req_per_s": {"better": "higher", "bound": 0.1}}
    with pytest.raises(ValueError):
        compare(_records({1: [1.0, 2.0]}), _records({1: [1.0]}), specs)
