"""Backward-compat goldens: every shipped container version still decodes.

``tests/golden/`` pins one blob per (unit, format, version) — WIR1,
WIR2 and WIR3 wire containers and BRI1, BRI2 and BRI3 BRISC images for
``fib`` and ``wc`` — plus the canonical text dump each must decode to
(``*.ir.txt`` for wire, ``*.vm.txt`` for BRISC).  The v3 blobs are
chunked at 64 bytes, two chunks each.  These tests hold every version to
byte-identical behaviour across refactors of the shared decode paths.
"""

import pathlib

import pytest

from repro.brisc import decode_image
from repro.ir import dump_function, dump_module
from repro.vm import format_function
from repro.wire import decode_function, decode_module
from repro.wire.format import _wire_version

GOLDEN = pathlib.Path(__file__).parent / "golden"

UNITS = ("fib", "wc")


def vm_dump(program) -> str:
    return "\n\n".join(format_function(fn) for fn in program.functions) + "\n"


class TestWireGoldens:
    @pytest.mark.parametrize("unit", UNITS)
    @pytest.mark.parametrize("version", (1, 2, 3))
    def test_decodes_to_pinned_ir(self, unit, version):
        blob = (GOLDEN / f"{unit}.wir{version}").read_bytes()
        assert _wire_version(blob) == version
        dump = dump_module(decode_module(blob)) + "\n"
        assert dump == (GOLDEN / f"{unit}.ir.txt").read_text()

    @pytest.mark.parametrize("version", (1, 2))
    def test_versions_agree(self, version):
        """v1 and v2 goldens of the same unit decode identically."""
        v1 = dump_module(decode_module((GOLDEN / "wc.wir1").read_bytes()))
        vn = dump_module(decode_module(
            (GOLDEN / f"wc.wir{version}").read_bytes()))
        assert v1 == vn

    @pytest.mark.parametrize("unit", UNITS)
    def test_decode_function_on_legacy_blobs(self, unit):
        """Function-granular reads work on pre-chunking containers too
        (via a full decode under the hood)."""
        blob = (GOLDEN / f"{unit}.wir1").read_bytes()
        module = decode_module(blob)
        for fn in module.functions:
            picked = decode_function(blob, fn.name)
            assert picked.name == fn.name
            assert len(picked.forest) == len(fn.forest)

    @pytest.mark.parametrize("unit", UNITS)
    def test_decode_function_on_seekable_blobs(self, unit):
        """Each function read through its chunk equals the full decode."""
        blob = (GOLDEN / f"{unit}.wir3").read_bytes()
        for fn in decode_module(blob).functions:
            assert dump_function(decode_function(blob, fn.name)) == \
                dump_function(fn)


class TestBriscGoldens:
    @pytest.mark.parametrize("unit", UNITS)
    @pytest.mark.parametrize("version", (1, 2, 3))
    def test_decodes_to_pinned_vm(self, unit, version):
        blob = (GOLDEN / f"{unit}.bri{version}").read_bytes()
        program = decode_image(blob)
        assert vm_dump(program) == (GOLDEN / f"{unit}.vm.txt").read_text()

    @pytest.mark.parametrize("unit", UNITS)
    def test_decode_function_on_legacy_images(self, unit):
        from repro.brisc.encode import decode_function as brisc_fn

        blob = (GOLDEN / f"{unit}.bri1").read_bytes()
        program = decode_image(blob)
        for fn in program.functions:
            assert brisc_fn(blob, fn.name).name == fn.name

    @pytest.mark.parametrize("unit", UNITS)
    def test_decode_function_on_seekable_images(self, unit):
        """Each function read through its chunk equals the full parse."""
        from repro.brisc.encode import decode_function as brisc_fn
        from repro.brisc.encode import parse_image

        blob = (GOLDEN / f"{unit}.bri3").read_bytes()
        for fn in parse_image(blob).functions:
            assert brisc_fn(blob, fn.name) == fn
