"""Compare two sets of benchmark result records, one row per
(workload, metric).

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are each a result record written by ``run.py`` or a
directory of them (``perfbench/out/results/``).  Runs pair up by
(workload, seed): the k-th run of a seed on one side, in time order,
with the k-th on the other, so repeated runs of one seed all count.  The
two sides must hold the same seeds equally often, or the step fails.
Each row shows both medians over the paired runs, the share of pairs
the change won (ties count for neither), and a verdict:

* ``better`` — at least ten pairs, the change won at least nine tenths
  of them, and the medians differ by more than the base's own spread
  (the distance between its quartiles);
* ``worse`` — the same test with the sides swapped, or the change's
  median is worse than the base's by more than the metric's bound while
  the base's spread is within that bound;
* ``unresolved`` — anything else: too few pairs, a difference inside
  the noise, or a spread wider than the bound.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from common import ROOT


def load_records(path: str) -> List[dict]:
    paths = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    records = []
    for p in paths:
        with open(p) as f:
            records.append(json.load(f))
    return records


def metric_specs(bench_path: str) -> Dict[str, dict]:
    with open(bench_path) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update({m["name"]: m for m in bench["per_layer"]})
    return specs


def _spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def pair_runs(base: Dict[int, List[float]],
              change: Dict[int, List[float]]) -> List[Tuple[float, float]]:
    """``(base, change)`` value pairs: the k-th run of a seed on one side
    with the k-th run of that seed on the other.  Raises ``ValueError``
    when the two sides do not hold the same seeds, each as often."""
    if set(base) != set(change):
        raise ValueError(f"seeds differ: base {sorted(base)}, "
                         f"change {sorted(change)}")
    pairs = []
    for seed in sorted(base):
        if len(base[seed]) != len(change[seed]):
            raise ValueError(f"seed {seed}: {len(base[seed])} base runs "
                             f"but {len(change[seed])} change runs")
        pairs += zip(base[seed], change[seed])
    return pairs


def verdict(pairs: List[Tuple[float, float]], better: str,
            bound: Optional[float]) -> Tuple[str, float]:
    """``(verdict, share of pairs the change won)``."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    share = wins / len(pairs) if pairs else 0.0
    b = [b for b, _ in pairs]
    b_med, c_med = statistics.median(b), statistics.median(c for _, c in pairs)
    spread = _spread(b)
    if len(pairs) >= 10 and abs(c_med - b_med) > spread:
        if wins >= 0.9 * len(pairs):
            return "better", share
        if losses >= 0.9 * len(pairs):
            return "worse", share
    if bound is not None and b_med and spread / abs(b_med) <= bound:
        if sign * (c_med - b_med) / abs(b_med) < -bound:
            return "worse", share
    return "unresolved", share


def compare(base_records, change_records, specs) -> List[dict]:
    def by_key(records):
        """(workload, metric) -> seed -> values, in record time order."""
        table: Dict[Tuple[str, str], Dict[int, List[float]]] = {}
        for r in sorted(records, key=lambda r: r["provenance"]["timestamp"]):
            prov = r["provenance"]
            for name, m in r["metrics"].items():
                table.setdefault((prov["workload"], name), {}).setdefault(
                    prov["seed"], []).append(m["value"])
        return table

    base, change = by_key(base_records), by_key(change_records)
    if set(base) != set(change):
        raise ValueError("the two sides report different (workload, metric) "
                         f"pairs: {sorted(set(base) ^ set(change))}")
    rows = []
    for key in sorted(base):
        workload, name = key
        try:
            pairs = pair_runs(base[key], change[key])
        except ValueError as exc:
            raise ValueError(f"{workload} {name}: {exc}") from None
        spec = specs.get(name, {"better": "higher"})
        result, share = verdict(pairs, spec["better"], spec.get("bound"))
        rows.append({"workload": workload, "metric": name,
                     "base_median": statistics.median(b for b, _ in pairs),
                     "change_median": statistics.median(c for _, c in pairs),
                     "won": share, "pairs": len(pairs), "verdict": result})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    try:
        rows = compare(load_records(args.base), load_records(args.change),
                       metric_specs(args.bench))
    except ValueError as exc:
        sys.stderr.write(f"compare: cannot pair the runs: {exc}\n")
        return 2
    print(f"{'workload':<14} {'metric':<28} {'base':>12} {'change':>12} "
          f"{'won':>9} verdict")
    for row in rows:
        won = f"{row['won']:.0%}/{row['pairs']}"
        print(f"{row['workload']:<14} {row['metric']:<28} "
              f"{row['base_median']:>12.5g} {row['change_median']:>12.5g} "
              f"{won:>9} {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
