"""Plain-text table rendering for benchmark reports.

Formats the measurement rows of :mod:`repro.bench.measure` in the shape of
the paper's tables so bench output can be eyeballed against the original.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .measure import AblationRow, BriscRow, WireRow

__all__ = ["render_table", "wire_table", "brisc_table", "ablation_table",
           "stage_stats_table"]


def render_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Render an aligned plain-text table."""
    materialized = [list(headers)] + [list(r) for r in rows]
    widths = [
        max(len(row[i]) for row in materialized)
        for i in range(len(headers))
    ]
    lines: List[str] = []
    for ri, row in enumerate(materialized):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if ri == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def wire_table(rows: Iterable[WireRow]) -> str:
    """The paper's wire-code size table (conventional/gzipped/wire)."""
    return render_table(
        ["program", "uncompressed", "gzipped", "wire code", "factor"],
        [
            [r.name, str(r.conventional), str(r.gzipped), str(r.wire),
             f"{r.wire_factor:.2f}x"]
            for r in rows
        ],
    )


def brisc_table(rows: Iterable[BriscRow]) -> str:
    """The paper's BRISC results table (sizes normalized to native)."""
    return render_table(
        ["program", "native B", "BRISC", "gzip", "JIT MB/s",
         "JIT runtime", "interp"],
        [
            [r.name, str(r.native_bytes), f"{r.brisc_rel:.2f}",
             f"{r.gzip_rel:.2f}", f"{r.jit_mb_per_s:.2f}",
             f"{r.jit_runtime_ratio:.2f}x", f"{r.interp_ratio:.1f}x"]
            for r in rows
        ],
    )


def ablation_table(rows: Iterable[AblationRow]) -> str:
    """The paper's abstract-machine variant table."""
    return render_table(
        ["abstract machine variant", "compressed/native"],
        [[r.variant, f"{r.ratio:.2f}"] for r in rows],
    )


def stage_stats_table(rows: Iterable[dict]) -> str:
    """Per-stage rows of one :class:`repro.pipeline.CompilationResult`.

    ``rows`` is :meth:`CompilationResult.stage_rows` output: dicts with
    ``stage``, ``seconds``, ``size``, ``cached``, and ``meta`` keys.
    """
    return render_table(
        ["stage", "time", "size", "cached", "detail"],
        [
            [r["stage"], f"{r['seconds'] * 1000:9.2f} ms",
             f"{r['size']:8d} B" if r["size"] else "       —",
             "yes" if r["cached"] else "no",
             ", ".join(f"{k}={v}" for k, v in sorted(r["meta"].items()))]
            for r in rows
        ],
    )
