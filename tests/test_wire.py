"""Wire-format tests: patternization, round-trips, and size behaviour."""

import pytest

import repro
from repro.cfront import compile_to_ast
from repro.compress.bitio import unzigzag, zigzag
from repro.corpus.samples import SAMPLES
from repro.ir import T, lower_unit
from repro.ir.tree import IRModule
from repro.vm import run_program
from repro.wire import (
    decode_module, encode_module, normalize_labels, patternize_tree,
    width_class,
)


def lower(src, name="m"):
    return lower_unit(compile_to_ast(src, name), name)


class TestWidthClasses:
    def test_paper_style_8_bit(self):
        """The paper flags literals fitting 8/16 bits (ADDRLP8 etc.)."""
        assert width_class(0) == 0
        assert width_class(72) == 0
        assert width_class(-64) == 0

    def test_16_bit(self):
        assert width_class(1000) == 1
        assert width_class(-1000) == 1

    def test_32_bit(self):
        assert width_class(100000) == 2

    def test_zigzag_roundtrip(self):
        for v in (0, 1, -1, 127, -128, 32767, -32768, 10**9, -10**9):
            assert unzigzag(zigzag(v)) == v


class TestPatternize:
    def test_pattern_strips_literals(self):
        tree = T("ASGNI", T("ADDRLP", value=72),
                 T("SUBI", T("INDIRI", T("ADDRLP", value=72)),
                   T("CNSTC", value=1)))
        pattern, literals = patternize_tree(tree)
        names = [sym[0] for sym in pattern]
        assert names == ["ASGNI", "ADDRLP", "SUBI", "INDIRI", "ADDRLP",
                         "CNSTC"]

    def test_literals_in_prefix_order(self):
        tree = T("ASGNI", T("ADDRLP", value=72),
                 T("SUBI", T("INDIRI", T("ADDRLP", value=68)),
                   T("CNSTC", value=1)))
        _, literals = patternize_tree(tree)
        assert literals == [("ADDRLP8", 72), ("ADDRLP8", 68), ("CNSTC8", 1)]

    def test_same_shape_same_pattern(self):
        a = T("ADDI", T("CNSTI", value=1), T("CNSTI", value=2))
        b = T("ADDI", T("CNSTI", value=7), T("CNSTI", value=8))
        assert patternize_tree(a)[0] == patternize_tree(b)[0]

    def test_width_distinguishes_patterns(self):
        a = T("CNSTI", value=1)
        b = T("CNSTI", value=100000)
        assert patternize_tree(a)[0] != patternize_tree(b)[0]


class TestRoundTrip:
    def _roundtrip(self, src):
        mod = lower(src)
        back = decode_module(encode_module(mod))
        norm = [normalize_labels(f) for f in mod.functions]
        assert [f.name for f in back.functions] == [f.name for f in norm]
        for f1, f2 in zip(norm, back.functions):
            assert f1.forest == f2.forest
            assert f1.frame_size == f2.frame_size
            assert f1.param_sizes == f2.param_sizes
            assert f1.ret_suffix == f2.ret_suffix
        assert len(back.globals) == len(mod.globals)
        return back

    def test_simple_function(self):
        self._roundtrip("int f(int a, int b) { return a + b; }")

    def test_control_flow(self):
        self._roundtrip("""
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++)
                    if (i % 2) s += i;
                return s;
            }
        """)

    def test_doubles_and_strings(self):
        self._roundtrip("""
            double pi = 3.14159;
            char *msg = "hello";
            double area(double r) { return pi * r * r; }
        """)

    def test_globals_with_initializers(self):
        back = self._roundtrip("int t[4] = {1, 2, 3, 4}; int x = -9;")
        names = [g.name for g in back.globals]
        assert "t" in names and "x" in names

    @pytest.mark.parametrize("name", ["wc", "calc", "queens", "strings"])
    def test_corpus_samples_roundtrip(self, name):
        self._roundtrip(SAMPLES[name])

    def test_decoded_module_still_compiles_and_runs(self):
        src = SAMPLES["wc"]
        mod = lower(src, "wc")
        back = decode_module(encode_module(mod))
        from repro.codegen import generate_program

        base = run_program(generate_program(mod))
        redo = run_program(generate_program(back))
        assert (base.exit_code, base.output) == (redo.exit_code, redo.output)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_module(b"XXXX" + b"\0" * 10)


class TestSizes:
    def test_wire_beats_gzip_on_real_input(self):
        """On a medium program the split-stream wire format must compress
        better than plain deflate of the same trees' byte encoding (the
        paper's central size claim, in shape)."""
        src = "\n".join(
            SAMPLES[n].replace("int main(void)", f"int m{i}(void)")
            for i, n in enumerate(("calc", "sort", "strings", "queens"))
        )
        mod = lower(src)
        blob = encode_module(mod)
        uncompressed = encode_module(mod, compress=False)
        assert len(blob) < len(uncompressed)

    def test_empty_module(self):
        mod = IRModule("empty")
        back = decode_module(encode_module(mod))
        assert back.functions == [] and back.globals == []


class TestContainerIntegrity:
    """WIR2 framing: version byte, per-stream CRCs, legacy decode."""

    def test_new_blobs_are_wir2(self):
        blob = encode_module(lower(SAMPLES["calc"]))
        assert blob[:4] == b"WIR2"

    def test_legacy_wir1_blobs_still_decode(self):
        from repro.compress.streams import pack_streams, unpack_streams
        from repro.ir import dump_module

        mod = lower(SAMPLES["calc"], "calc")
        blob = encode_module(mod)
        # Rebuild the same container the seed format would have written:
        # identical streams, no CRCs, WIR1 magic.
        streams = unpack_streams(blob[4:])
        legacy = b"WIR1" + pack_streams(streams, checksums=False)
        assert dump_module(decode_module(legacy)) == \
            dump_module(decode_module(blob))

    def test_unknown_version_rejected(self):
        from repro.errors import UnsupportedFormatError

        blob = encode_module(lower("int f(void) { return 1; }"))
        with pytest.raises(UnsupportedFormatError):
            decode_module(b"WIR9" + blob[4:])

    def test_wrong_magic_rejected_typed(self):
        from repro.errors import UnsupportedFormatError

        with pytest.raises(UnsupportedFormatError):
            decode_module(b"ELF\x7f" + bytes(32))

    def test_payload_corruption_caught_by_stream_crc(self):
        from repro.errors import DecodeError

        blob = bytearray(encode_module(lower(SAMPLES["calc"])))
        hits = 0
        for pos in range(4, len(blob), 97):  # sample positions
            mutant = bytearray(blob)
            mutant[pos] ^= 0x10
            try:
                decode_module(bytes(mutant))
            except DecodeError:
                hits += 1
        assert hits > 0  # corruption is reported, not absorbed silently

    def test_truncation_is_typed(self):
        from repro.errors import DecodeError

        blob = encode_module(lower(SAMPLES["calc"]))
        for cut in (5, len(blob) // 2, len(blob) - 1):
            with pytest.raises(DecodeError):
                decode_module(blob[:cut])

    @pytest.mark.parametrize("encode", ["encode_module", "encode_module_v3"])
    def test_zero_alignment_rejected(self, encode):
        """Alignment 0 would divide by zero when the VM lays out the
        globals.  The encoder writes whatever the module holds, so the
        forged blob carries valid CRCs and only the reader can refuse it."""
        from repro.corpus import suite_source
        from repro.errors import CorruptStreamError
        from repro.wire import decode_function

        mod = lower(suite_source("wc"), "wc")
        mod.globals[0].align = 0
        blob = getattr(repro.wire, encode)(mod)
        assert blob[:4] == (b"WIR2" if encode == "encode_module" else b"WIR3")
        with pytest.raises(CorruptStreamError, match="alignment 0"):
            decode_module(blob)
        with pytest.raises(CorruptStreamError, match="alignment 0"):
            decode_function(blob, "main")
