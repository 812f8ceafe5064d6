"""Measurement-runner tests (on the small suite input, for speed)."""

import math

from repro.bench import (
    ablation_table, brisc_row, brisc_table, render_table, vm_code_bytes,
    wire_row, wire_table,
)
from repro.bench.measure import WireRow, BriscRow, AblationRow
from repro.corpus import build_input


class TestWireRow:
    def test_wc_row_fields(self):
        row = wire_row("wc")
        assert row.conventional > 0
        assert row.gzipped > 0
        assert row.wire > 0

    def test_factor_definition(self):
        row = WireRow("x", conventional=500, gzipped=200, wire=100)
        assert row.wire_factor == 5.0


class TestBriscRow:
    def test_row_without_interp_is_not_reused(self):
        """Each call measures: a row measured without the interpreter run
        never stands in for one that asks for it."""
        skipped = brisc_row("wc", measure_interp=False)
        assert math.isnan(skipped.interp_ratio)
        row = brisc_row("wc")
        assert not math.isnan(row.interp_ratio) and row.interp_ratio > 0
        assert (row.native_bytes, row.brisc_rel, row.gzip_rel) == \
            (skipped.native_bytes, skipped.brisc_rel, skipped.gzip_rel)


class TestVmCodeBytes:
    def test_nonempty_and_deterministic(self):
        inp = build_input("wc")
        a = vm_code_bytes(inp.program)
        b = vm_code_bytes(inp.program)
        assert a == b and len(a) > 0


class TestTables:
    def test_render_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}

    def test_wire_table_renders(self):
        text = wire_table([WireRow("gcc", 1_381_304, 380_451, 287_260)])
        assert "gcc" in text and "4.81x" in text

    def test_brisc_table_renders(self):
        row = BriscRow("icc", 100, 0.54, 0.48, 2.5, 1.08, 12.0)
        text = brisc_table([row])
        assert "0.54" in text and "12.0x" in text

    def test_ablation_table_renders(self):
        rows = [
            AblationRow("RISC", 100, 54),
            AblationRow("minus both", 100, 59),
        ]
        text = ablation_table(rows)
        assert "0.54" in text and "0.59" in text
