"""Table regeneration (`python -m repro tables`).

The measurement helpers are monkeypatched to canned rows so these tests
pin the regeneration itself — which units feed which table, that every
run measures every unit, NaN rendering, EXPERIMENTS.md patching —
without paying for real BRISC builds.
"""

import pytest

from repro.bench import regen
from repro.bench.measure import AblationRow, BriscRow, WireRow


@pytest.fixture
def measured(monkeypatch):
    """Patch the measurement helpers; returns the per-helper call log."""
    calls = {"wire": [], "brisc": [], "ablation": []}

    def fake_wire(name):
        calls["wire"].append(name)
        return WireRow(name=name, conventional=100, gzipped=50, wire=40)

    def fake_brisc(name, measure_interp=True):
        calls["brisc"].append((name, measure_interp))
        interp = 9.5 if measure_interp else float("nan")
        return BriscRow(name=name, native_bytes=100, brisc_rel=0.5,
                        gzip_rel=0.4, jit_mb_per_s=1.0,
                        jit_runtime_ratio=1.0, interp_ratio=interp)

    def fake_ablation(name="lcc"):
        calls["ablation"].append(name)
        return [AblationRow(variant="RISC", native_size=100,
                            compressed_size=61)]

    monkeypatch.setattr(regen, "wire_row", fake_wire)
    monkeypatch.setattr(regen, "brisc_row", fake_brisc)
    monkeypatch.setattr(regen, "ablation_rows", fake_ablation)
    return calls


class TestRegenerate:
    def test_second_run_measures_again(self, measured):
        first = regen.regenerate_tables(["wc", "lcc"])
        assert measured["wire"] == ["wc", "lcc"]
        assert measured["brisc"] == [("wc", True), ("lcc", True)]
        assert measured["ablation"] == ["lcc"]  # lcc only
        second = regen.regenerate_tables(["wc", "lcc"])
        assert measured["wire"] == ["wc", "lcc"] * 2
        assert measured["brisc"] == [("wc", True), ("lcc", True)] * 2
        assert measured["ablation"] == ["lcc"] * 2
        assert second == first

    def test_unknown_unit_rejected(self, measured):
        with pytest.raises(KeyError):
            regen.regenerate_tables(["no-such-unit"])

    def test_skip_interp_nan_roundtrips_as_null(self, measured):
        report = regen.regenerate_tables(["wc"], skip_interp=True)
        assert measured["brisc"] == [("wc", False)]
        # The skipped interp column renders as NaN.
        _, t2, _ = regen.render_report(report)
        assert "nan" in t2

    def test_gcc_contributes_only_table1(self, measured):
        report = regen.regenerate_tables(["gcc"])
        assert set(report["gcc"]) == {"t1"}
        assert measured["brisc"] == [] and measured["ablation"] == []


class TestRendering:
    def test_write_results_emits_only_populated_tables(self, tmp_path,
                                                       measured):
        report = regen.regenerate_tables(["wc"])
        written = regen.write_results(report, str(tmp_path / "out"))
        names = [p.rsplit("/", 1)[1] for p in written]
        assert names == ["table1.txt", "table2.txt"]  # no ablation row

    def test_table2_not_rendered_without_its_units(self, tmp_path, measured):
        report = regen.regenerate_tables(["gcc"])
        written = regen.write_results(report, str(tmp_path / "out"))
        assert [p.rsplit("/", 1)[1] for p in written] == ["table1.txt"]
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text("# header\n")
        assert regen.patch_experiments(report, str(doc)) is True
        text = doc.read_text()
        assert "Table 1" in text and "Table 2" not in text

    def test_patch_experiments_is_idempotent(self, tmp_path, measured):
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text("# header\n\nbody text\n")
        report = regen.regenerate_tables(["wc", "lcc"])
        assert regen.patch_experiments(report, str(doc)) is True
        first = doc.read_text()
        assert first.startswith("# header")
        assert regen.MARK_BEGIN in first and regen.MARK_END in first
        assert first.count(regen.MARK_BEGIN) == 1
        # Re-patching with identical rows changes nothing.
        assert regen.patch_experiments(report, str(doc)) is False
        assert doc.read_text() == first

    def test_patch_experiments_replaces_existing_block(self, tmp_path,
                                                       measured):
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text(f"head\n{regen.MARK_BEGIN}\nstale\n{regen.MARK_END}\n"
                       f"tail\n")
        report = regen.regenerate_tables(["wc"])
        assert regen.patch_experiments(report, str(doc)) is True
        text = doc.read_text()
        assert "stale" not in text
        assert text.startswith("head\n") and text.rstrip().endswith("tail")
