"""Deflate-like container tests (the reproduction's gzip)."""

import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress import deflate


class TestRoundtrip:
    def test_empty(self):
        assert deflate.decompress(deflate.compress(b"")) == b""

    def test_single_byte(self):
        assert deflate.decompress(deflate.compress(b"x")) == b"x"

    def test_text(self):
        data = b"the quick brown fox jumps over the lazy dog " * 40
        assert deflate.decompress(deflate.compress(data)) == data

    def test_binary_with_all_byte_values(self):
        data = bytes(range(256)) * 8
        assert deflate.decompress(deflate.compress(data)) == data

    @given(st.binary(max_size=3000))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, data):
        assert deflate.decompress(deflate.compress(data)) == data


class TestRatios:
    def test_compresses_repetitive_data(self):
        data = b"abcdefgh" * 500
        assert len(deflate.compress(data)) < len(data) // 10

    def test_close_to_zlib_on_mixed_data(self):
        rng = random.Random(42)
        data = bytes(
            rng.choice(b"abcdefgh \n") for _ in range(20_000)
        ) + b"some repeated phrase here " * 300
        ours = len(deflate.compress(data))
        theirs = len(zlib.compress(data, 6))
        # Within 25% of zlib on this input: same algorithm family.
        assert ours < theirs * 1.25

    def test_incompressible_data_overhead_bounded(self):
        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(5000))
        # Literal-heavy Huffman coding costs < 9 bits/byte + headers.
        assert len(deflate.compress(data)) < len(data) * 9 // 8 + 400


class TestErrors:
    def test_truncated_stream_raises(self):
        blob = deflate.compress(b"hello world, hello world, hello")
        with pytest.raises((EOFError, ValueError)):
            deflate.decompress(blob[: len(blob) // 2])

    def test_length_header_checked(self):
        blob = bytearray(deflate.compress(b"abc"))
        blob[0] ^= 0xFF  # corrupt the 32-bit length header
        with pytest.raises((EOFError, ValueError)):
            deflate.decompress(bytes(blob))


def test_min_block_bytes_is_the_empty_block():
    """The bound pack_streams skips below is tight: the empty input's
    block is exactly that long, and no block is shorter."""
    assert len(deflate.compress(b"")) == deflate.MIN_BLOCK_BYTES == 171
    rng = random.Random(5)
    for n in (1, 2, 50, 171, 172, 400):
        data = bytes(rng.randrange(4) for _ in range(n))
        assert len(deflate.compress(data)) >= deflate.MIN_BLOCK_BYTES
