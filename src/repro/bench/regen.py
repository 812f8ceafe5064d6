"""Regeneration of the EXPERIMENTS.md tables (``repro tables``).

Measures the paper's Table 1 (wire sizes), Table 2 (BRISC results), and
Table 3 (abstract-machine ablation) rows of every requested suite unit,
on every run.  The only thing a run reuses is the shared toolchain's
artifact cache, which ``REPRO_DISK_CACHE=1`` persists across runs, so a
rerun compiles nothing it compiled before but measures every row again.

Rendered tables always land in the results directory
(``table1.txt``/``table2.txt``/``table3.txt``); ``--write-experiments``
additionally patches the auto-generated block of ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from ..corpus import suite_names
from .measure import INTERP_PAIRS, ablation_rows, brisc_row, wire_row
from .tables import ablation_table, brisc_table, wire_table

__all__ = ["regenerate_tables", "render_report"]

#: Which units feed which table (mirrors benchmarks/bench_table*.py):
#: Table 1 measures every suite unit, Table 2 skips gcc (its interpreter
#: workload dominates the run), Table 3 ablates lcc only.
T2_UNITS = ("wc", "lcc")
T3_UNIT = "lcc"

#: Markers bounding the auto-generated block in EXPERIMENTS.md.
MARK_BEGIN = "<!-- repro-tables:begin -->"
MARK_END = "<!-- repro-tables:end -->"


def _measure_unit(name: str, skip_interp: bool) -> Dict[str, Any]:
    """Measure every table row this unit contributes."""
    rows: Dict[str, Any] = {"t1": wire_row(name)}
    if name in T2_UNITS:
        rows["t2"] = brisc_row(name, measure_interp=not skip_interp)
    if name == T3_UNIT:
        rows["t3"] = ablation_rows(name)
    return rows


def regenerate_tables(
    units: Optional[List[str]] = None, skip_interp: bool = False,
) -> Dict[str, Dict[str, Any]]:
    """Measure the table rows of ``units`` (default: the full suite).

    Returns ``{unit: {"t1": WireRow, "t2": BriscRow, "t3": [AblationRow]}}``
    in ``units`` order, each unit carrying only the tables it feeds.
    """
    if units is None:
        units = list(suite_names())
    unknown = sorted(set(units) - set(suite_names()))
    if unknown:
        raise KeyError(f"unknown suite units {unknown} "
                       f"(have: {sorted(suite_names())})")
    return {name: _measure_unit(name, skip_interp) for name in units}


def render_report(
    report: Dict[str, Dict[str, Any]],
) -> Tuple[str, str, str]:
    """Render the three tables from a :func:`regenerate_tables` report; a
    table that no unit of the report feeds renders as ``""``."""
    rows = report.values()
    t1 = wire_table(r["t1"] for r in rows)
    t2_rows = [r["t2"] for r in rows if "t2" in r]
    t2 = brisc_table(t2_rows) if t2_rows else ""
    t3 = next((ablation_table(r["t3"]) for r in rows if "t3" in r), "")
    return t1, t2, t3


def write_results(report: Dict[str, Dict[str, Any]],
                  results_dir: str) -> List[str]:
    """Write ``table1.txt``..``table3.txt`` under ``results_dir``."""
    os.makedirs(results_dir, exist_ok=True)
    written: List[str] = []
    for stem, text in zip(("table1", "table2", "table3"),
                          render_report(report)):
        if not text:
            continue
        path = os.path.join(results_dir, f"{stem}.txt")
        with open(path, "w") as f:
            f.write(text + "\n")
        written.append(path)
    return written


def patch_experiments(report: Dict[str, Dict[str, Any]],
                      path: str = "EXPERIMENTS.md") -> bool:
    """Replace the auto-generated block in ``EXPERIMENTS.md``.

    The block lives between :data:`MARK_BEGIN`/:data:`MARK_END` markers;
    it is appended if missing.  Returns whether the file changed.
    """
    t1, t2, t3 = render_report(report)
    parts = ["", MARK_BEGIN,
             "## Regenerated tables (`python -m repro tables`)", ""]
    for title, text in (("Table 1 — wire-format sizes", t1),
                        ("Table 2 — BRISC results (interp: the median "
                         f"ratio of {INTERP_PAIRS} alternated VM/BRISC run "
                         "pairs)", t2),
                        ("Table 3 — abstract-machine ablation", t3)):
        if not text:
            continue
        parts += [f"### {title}", "", "```text", text, "```", ""]
    parts += [MARK_END, ""]
    block = "\n".join(parts)
    try:
        with open(path) as f:
            doc = f.read()
    except OSError:
        return False
    if MARK_BEGIN in doc and MARK_END in doc:
        head, rest = doc.split(MARK_BEGIN, 1)
        _, tail = rest.split(MARK_END, 1)
        new_doc = head.rstrip("\n") + "\n" + block + tail.lstrip("\n")
    else:
        new_doc = doc.rstrip("\n") + "\n" + block
    if new_doc == doc:
        return False
    with open(path, "w") as f:
        f.write(new_doc)
    return True
