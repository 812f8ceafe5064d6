"""Wire-format internals: novel-value codecs, symbol table, size metrics."""

from hypothesis import given, strategies as st

from repro.cfront import compile_to_ast
from repro.compress.bitio import literal_key
from repro.compress.streams import unpack_streams
from repro.corpus.samples import SAMPLES
from repro.ir import lower_unit
from repro.wire import encode_module, wire_size
from repro.wire.format import (
    _pack_int_novels, _pack_pattern_novels, _pack_str_novels,
    _unpack_float_novels, _unpack_int_novels, _unpack_pattern_novels,
    _unpack_str_novels,
)


def lower(src, name="m"):
    return lower_unit(compile_to_ast(src, name), name)


class TestNovelCodecs:
    @given(st.lists(st.integers(-2**40, 2**40)))
    def test_int_novels_roundtrip(self, values):
        blob = _pack_int_novels(values)
        assert _unpack_int_novels(blob, len(values)) == values

    @given(st.lists(st.text(max_size=20)))
    def test_str_novels_roundtrip(self, values):
        blob = _pack_str_novels(values)
        assert _unpack_str_novels(blob, len(values)) == values

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
    def test_float_novels_roundtrip(self, values):
        # A float stream's novels are its literal keys: the doubles' bytes.
        keys = [literal_key(v) for v in values]
        decoded = _unpack_float_novels(b"".join(keys), len(values))
        assert [literal_key(v) for v in decoded] == keys

    def test_pattern_novels_roundtrip(self):
        patterns = [
            (("ASGNI", 0), ("ADDRLP", 0), ("CNSTI", 1)),
            (("RETI", 0), ("CNSTI", 2)),
            (("LABELV", 0),),
        ]
        blob = _pack_pattern_novels(patterns)
        assert _unpack_pattern_novels(blob, len(patterns)) == patterns

    def test_pattern_width_zero_is_one_byte(self):
        one = _pack_pattern_novels([(("ADDI", 0),)])
        wide = _pack_pattern_novels([(("ADDI", 2),)])
        # width-0 entries cost one byte per operator; wider cost two.
        assert len(wide) == len(one) + 1

    def test_small_ints_pack_small(self):
        assert len(_pack_int_novels([0, 1, -1, 63])) == 4


class TestSymbolTable:
    def test_symtab_stream_present(self):
        mod = lower('int g(void) { return 0; } int main(void) { return g(); }')
        streams = unpack_streams(encode_module(mod)[4:])
        assert "symtab" in streams

    def test_symbol_names_not_in_code_streams(self):
        mod = lower("""
            int a_very_distinctive_name(void) { return 1; }
            int main(void) { return a_very_distinctive_name(); }
        """)
        streams = unpack_streams(encode_module(mod)[4:])
        for name, data in streams.items():
            if name in ("meta", "symtab"):
                continue
            assert b"a_very_distinctive_name" not in data

    def test_repeated_calls_share_one_table_entry(self):
        mod = lower("""
            int h(void) { return 1; }
            int main(void) { return h() + h() + h() + h(); }
        """)
        streams = unpack_streams(encode_module(mod)[4:])
        assert streams["symtab"].count(b"h") <= 2  # table entry, not per-call


class TestSizeMetrics:
    def test_code_only_excludes_meta_and_symtab(self):
        mod = lower(SAMPLES["hashtab"], "hashtab")
        full = wire_size(mod)
        code = wire_size(mod, code_only=True)
        assert code < full

    def test_code_only_still_positive(self):
        mod = lower("int main(void) { return 0; }")
        assert wire_size(mod, code_only=True) > 0

    def test_bigger_program_bigger_wire(self):
        small = lower("int main(void) { return 0; }")
        big = lower(SAMPLES["sort"], "sort")
        assert wire_size(big, code_only=True) > \
            wire_size(small, code_only=True)
