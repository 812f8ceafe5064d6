"""Seekable v3 containers: chunk packing, partial decode, and isolation.

The contract under test:

* ``decode_range(blob, start, n)`` over a chunked container is
  byte-identical to slicing the fully-decoded address space — for any
  span, any chunk-size cap, and chunks whose members are not adjacent;
* ``decode_function`` touches only the chunks covering the function, so
  it works on *sparse* containers holding just those byte ranges, and a
  partial read parses the container header once;
* corruption in one chunk raises a typed error for reads of that chunk
  and leaves reads of every other chunk byte-identical.
"""

from random import Random

import pytest

from repro.brisc import compress, decode_image, run_image
from repro.brisc import encode as brisc_encode
from repro.cfront import compile_to_ast
from repro.codegen import generate_program
from repro.container import (
    assemble_sparse, container_index, container_kind, decode_range_bytes,
    pack_chunks,
)
from repro.corpus import get_sample
from repro.errors import (
    CorruptStreamError, DecodeError, UnsupportedFormatError,
)
from repro.faults import corrupt_chunk, fuzz_chunked_container
from repro.ir import dump_function, dump_module, lower_unit
from repro.vm import run_program
from repro.wire import (
    decode_function, decode_module, decode_range, encode_module,
    encode_module_v3, function_image,
)
from repro.wire import format as wire_format

MULTI = """
int a(int x) { return x + 1; }
int b(int x) { return x * 2; }
int c(int x) { return x - 3; }
int d(int x) { return a(x) + b(x) + c(x); }
int main(void) { print_int(d(5)); putchar('\\n'); return 0; }
"""


def lower(src, name="m"):
    return lower_unit(compile_to_ast(src, name), name)


@pytest.fixture(scope="module")
def wc_module():
    return lower(get_sample("wc"), "wc")


@pytest.fixture(scope="module")
def multi_module():
    return lower(MULTI, "multi")


@pytest.fixture(scope="module")
def multi_program():
    return generate_program(lower(MULTI, "multi"))


# ---------------------------------------------------------------------------
# chunk packing
# ---------------------------------------------------------------------------


SIZES = [100, 200, 900, 50, 400]

#: A grouping whose chunks hold non-adjacent functions (members still
#: ascend, as the encoders require).  ``pack_chunks`` never produces
#: one; the decoders must not assume adjacency all the same.
SCATTERED = [[0, 4], [1, 3], [2]]


class TestPlacement:
    def test_greedy_respects_size_cap(self):
        chunks = pack_chunks(SIZES, 300)
        assert sorted(i for members in chunks for i in members) == \
            list(range(len(SIZES)))
        for members in chunks:
            size = sum(SIZES[i] for i in members)
            assert size <= 300 or len(members) == 1

    def test_oversize_function_gets_own_chunk(self):
        assert [2] in pack_chunks(SIZES, 300)  # f2 (900 B) cannot share

    def test_greedy_keeps_module_order(self):
        assert pack_chunks(SIZES, 10_000) == [[0, 1, 2, 3, 4]]
        for members in pack_chunks(SIZES, 300):
            assert members == sorted(members)

    def test_greedy_rejects_bad_target(self):
        with pytest.raises(ValueError):
            pack_chunks(SIZES, 0)


# ---------------------------------------------------------------------------
# wire (WIR3)
# ---------------------------------------------------------------------------


class TestWireV3:
    def test_v3_full_decode_matches_v2(self, multi_module):
        v2 = decode_module(encode_module(multi_module))
        v3 = decode_module(encode_module_v3(multi_module))
        assert dump_module(v3) == dump_module(v2)

    @pytest.mark.parametrize("chunk_bytes", [None, 256, 64, 1])
    def test_decode_range_matches_full_slice(self, multi_module, chunk_bytes):
        blob = (encode_module_v3(multi_module) if chunk_bytes is None
                else encode_module_v3(multi_module, chunk_bytes=chunk_bytes))
        whole = b"".join(function_image(fn)
                         for fn in decode_module(blob).functions)
        rng = Random(3)
        for _ in range(40):
            start = rng.randrange(len(whole))
            length = rng.randrange(1, len(whole) - start + 1)
            assert decode_range(blob, start, length) == \
                whole[start:start + length]

    def test_decode_range_clamps_like_a_slice(self, wc_module):
        blob = encode_module_v3(wc_module, chunk_bytes=256)
        whole = b"".join(function_image(fn)
                         for fn in decode_module(blob).functions)
        assert decode_range(blob, len(whole) - 4, 100) == whole[-4:]
        assert decode_range(blob, len(whole) + 10, 5) == b""
        assert decode_range(blob, 0, 0) == b""

    def test_negative_range_is_typed(self, wc_module):
        blob = encode_module_v3(wc_module)
        with pytest.raises(CorruptStreamError):
            decode_range(blob, -1, 5)
        with pytest.raises(CorruptStreamError):
            decode_range(blob, 0, -5)

    def test_decode_function_matches_full_decode(self, multi_module):
        blob = encode_module_v3(multi_module, chunk_bytes=64)
        full = {fn.name: fn for fn in decode_module(blob).functions}
        for name in full:
            assert dump_function(decode_function(blob, name)) == \
                dump_function(full[name])

    def test_unknown_function_lists_names(self, multi_module):
        blob = encode_module_v3(multi_module)
        with pytest.raises(CorruptStreamError, match="nope"):
            decode_function(blob, "nope")

    def test_sparse_container_serves_one_function(self, multi_module):
        """Only the header + covering chunks suffice for one function."""
        blob = encode_module_v3(multi_module, chunk_bytes=64)
        index = container_index(blob)
        ranges = index.ranges_for_function("b")
        fetched = sum(n for _, n in ranges)
        assert fetched < len(blob)
        sparse = assemble_sparse(
            len(blob), [(o, blob[o:o + n]) for o, n in ranges])
        assert dump_function(decode_function(sparse, "b")) == \
            dump_function(decode_function(blob, "b"))

    def test_v2_blob_falls_back_to_full_decode(self, multi_module):
        v2 = encode_module(multi_module)
        whole = b"".join(function_image(fn)
                         for fn in decode_module(v2).functions)
        assert decode_range(v2, 3, 40) == whole[3:43]
        assert decode_function(v2, "a").name == "a"

    def test_roundtrip_is_deterministic(self, wc_module):
        one = encode_module_v3(wc_module, chunk_bytes=256)
        two = encode_module_v3(wc_module, chunk_bytes=256)
        assert one == two

    def test_scattered_chunks_decode_like_a_full_decode(self, multi_module,
                                                        monkeypatch):
        monkeypatch.setattr(wire_format, "pack_chunks",
                            lambda sizes, target_bytes: SCATTERED)
        blob = encode_module_v3(multi_module)
        index = container_index(blob)
        assert [chunk.members for chunk in index.chunks] == \
            [tuple(members) for members in SCATTERED]
        full = decode_module(blob)
        assert dump_module(full) == \
            dump_module(decode_module(encode_module(multi_module)))
        whole = b"".join(function_image(fn) for fn in full.functions)
        for record in index.functions:
            assert dump_function(decode_function(blob, record.name)) == \
                dump_function(full.functions[record.index])
        rng = Random(4)
        for _ in range(40):
            start = rng.randrange(len(whole))
            length = rng.randrange(1, len(whole) - start + 1)
            assert decode_range(blob, start, length) == \
                whole[start:start + length]


# ---------------------------------------------------------------------------
# BRISC (BRI3)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bri2_blob(multi_program):
    return compress(multi_program, k=8, max_passes=6).image.blob


@pytest.fixture(scope="module")
def bri3_blob(bri2_blob):
    return brisc_encode.repack_v3(bri2_blob, 64)


class TestBriscV3:
    def test_repack_preserves_the_program(self, bri2_blob, bri3_blob):
        v2 = decode_image(bri2_blob)
        v3 = decode_image(bri3_blob)
        assert [fn.name for fn in v3.functions] == \
            [fn.name for fn in v2.functions]
        assert run_program(v3).output == run_program(v2).output

    def test_chunked_image_still_interprets(self, bri3_blob):
        assert run_image(bri3_blob).output == "18\n"

    def test_repack_is_idempotent(self, bri3_blob):
        again = brisc_encode.repack_v3(bri3_blob, 64)
        assert again == bri3_blob

    def test_decode_range_matches_code_bytes(self, bri2_blob, bri3_blob):
        image = brisc_encode.parse_image(bri2_blob)
        whole = b"".join(bytes(fn.code) for fn in image.functions)
        rng = Random(11)
        for _ in range(40):
            start = rng.randrange(len(whole))
            length = rng.randrange(1, len(whole) - start + 1)
            assert brisc_encode.decode_range(bri3_blob, start, length) == \
                whole[start:start + length]

    def test_decode_function_matches_full_parse(self, bri2_blob, bri3_blob):
        full = {fn.name: fn for fn in
                brisc_encode.parse_image(bri2_blob).functions}
        for name in full:
            fn = brisc_encode.decode_function(bri3_blob, name)
            assert bytes(fn.code) == bytes(full[name].code)

    def test_sparse_image_serves_one_function(self, bri3_blob):
        index = container_index(bri3_blob)
        ranges = index.ranges_for_function("c")
        assert sum(n for _, n in ranges) < len(bri3_blob)
        sparse = assemble_sparse(
            len(bri3_blob),
            [(o, bri3_blob[o:o + n]) for o, n in ranges])
        want = brisc_encode.decode_function(bri3_blob, "c")
        got = brisc_encode.decode_function(sparse, "c")
        assert bytes(got.code) == bytes(want.code)

    def test_scattered_chunks_decode_like_a_full_parse(self, bri2_blob,
                                                       monkeypatch):
        monkeypatch.setattr(brisc_encode, "pack_chunks",
                            lambda sizes, target_bytes: SCATTERED)
        blob = brisc_encode.repack_v3(bri2_blob)
        index = container_index(blob)
        assert [chunk.members for chunk in index.chunks] == \
            [tuple(members) for members in SCATTERED]
        full = brisc_encode.parse_image(bri2_blob)
        assert brisc_encode.parse_image(blob).functions == full.functions
        whole = b"".join(fn.code for fn in full.functions)
        for record in index.functions:
            assert brisc_encode.decode_function(blob, record.name) == \
                full.functions[record.index]
        rng = Random(12)
        for _ in range(40):
            start = rng.randrange(len(whole))
            length = rng.randrange(1, len(whole) - start + 1)
            assert brisc_encode.decode_range(blob, start, length) == \
                whole[start:start + length]

    def test_v2_image_falls_back(self, bri2_blob):
        image = brisc_encode.parse_image(bri2_blob)
        whole = b"".join(bytes(fn.code) for fn in image.functions)
        assert brisc_encode.decode_range(bri2_blob, 2, 9) == whole[2:11]
        assert brisc_encode.decode_function(bri2_blob, "a").name == "a"


# ---------------------------------------------------------------------------
# the shared index / dispatch layer
# ---------------------------------------------------------------------------


class TestContainerIndex:
    def test_kind_dispatch(self, multi_module, bri3_blob):
        assert container_kind(encode_module_v3(multi_module)) == "wire"
        assert container_kind(bri3_blob) == "brisc"
        with pytest.raises(UnsupportedFormatError):
            container_kind(b"ZZZZ not a container")

    def test_ranges_always_cover_the_header(self, multi_module):
        blob = encode_module_v3(multi_module, chunk_bytes=64)
        index = container_index(blob)
        for fn in index.functions:
            ranges = index.ranges_for_function(fn.name)
            assert ranges[0][0] == 0
            assert ranges[0][1] >= index.header_bytes

    def test_functions_in_span(self, multi_module):
        blob = encode_module_v3(multi_module, chunk_bytes=64)
        index = container_index(blob)
        spans = sorted(index.functions, key=lambda f: f.span_start)
        first = spans[0]
        hit = index.functions_in_span(first.span_start, 1)
        assert [f.name for f in hit] == [first.name]
        everything = index.functions_in_span(0, index.span_bytes)
        assert len(everything) == len(index.functions)

    def test_decode_range_bytes_dispatches(self, multi_module, bri3_blob):
        wire_blob = encode_module_v3(multi_module)
        assert decode_range_bytes(wire_blob, 0, 8) == \
            decode_range(wire_blob, 0, 8)
        assert decode_range_bytes(bri3_blob, 0, 8) == \
            brisc_encode.decode_range(bri3_blob, 0, 8)


@pytest.mark.parametrize("fmt", ("wire", "brisc"))
@pytest.mark.parametrize("read", ("decode_function", "decode_range"))
def test_partial_read_parses_the_header_once(fmt, read, multi_module,
                                             bri3_blob, monkeypatch):
    """One partial read verifies, inflates and parses the header once."""
    if fmt == "wire":
        module, blob = wire_format, encode_module_v3(multi_module,
                                                     chunk_bytes=64)
    else:
        module, blob = brisc_encode, bri3_blob
    calls = []
    real = module.read_header

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "read_header", counting)
    if read == "decode_function":
        assert module.decode_function(blob, "b").name == "b"
    else:
        assert module.decode_range(blob, 0, 16)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# corruption isolation
# ---------------------------------------------------------------------------


class TestIsolation:
    @pytest.mark.parametrize("fmt", ("wire", "brisc"))
    def test_corrupt_chunk_is_contained(self, fmt, multi_module, bri3_blob):
        if fmt == "wire":
            blob = encode_module_v3(multi_module, chunk_bytes=64)
        else:
            blob = bri3_blob
        index = container_index(blob)
        assert len(index.chunks) >= 2, "need multiple chunks to isolate"
        victim = index.chunks[0]
        bad = corrupt_chunk(blob, victim.index, Random(5))
        for fn in index.functions:
            if fn.chunk == victim.index:
                with pytest.raises(DecodeError):
                    decode_range_bytes(bad, fn.span_start, fn.span_length)
            else:
                assert decode_range_bytes(bad, fn.span_start,
                                          fn.span_length) == \
                    decode_range_bytes(blob, fn.span_start, fn.span_length)

    @pytest.mark.parametrize("fmt", ("wire", "brisc"))
    def test_fuzz_harness_reports_clean(self, fmt, multi_module, bri3_blob):
        if fmt == "wire":
            blob = encode_module_v3(multi_module, chunk_bytes=64)
        else:
            blob = bri3_blob
        report = fuzz_chunked_container(blob, target=f"{fmt}3", seed=2)
        assert report.ok, [f.detail for f in report.failures]
        assert report.counts.get("detected", 0) > 0

    def test_header_corruption_is_typed(self, multi_module):
        blob = bytearray(encode_module_v3(multi_module))
        blob[6] ^= 0xFF  # inside the header CRC's coverage
        with pytest.raises(DecodeError):
            decode_function(bytes(blob), "a")
