"""Bit I/O unit and property tests."""

import pytest
from hypothesis import given, strategies as st

from repro.compress.bitio import (
    BitReader, BitWriter, read_uvarint, uvarint, write_uvarint,
)


class TestBitWriter:
    def test_single_bits_pack_msb_first(self):
        w = BitWriter()
        for bit in (1, 0, 1, 1):
            w.write_bit(bit)
        assert w.getvalue() == bytes([0b1011_0000])

    def test_write_bits_value(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bits(0b11111, 5)
        assert w.getvalue() == bytes([0b1011_1111])

    def test_write_zero_width(self):
        w = BitWriter()
        w.write_bits(0, 0)
        assert w.getvalue() == b""

    def test_value_too_large_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(4, 2)

    def test_negative_value_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(-1, 4)

    def test_negative_width_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(0, -1)

    def test_align_pads_with_zeros(self):
        w = BitWriter()
        w.write_bits(0b1, 1)
        w.align()
        w.write_bits(0xFF, 8)
        assert w.getvalue() == bytes([0b1000_0000, 0xFF])

    def test_write_bytes_aligned_fast_path(self):
        w = BitWriter()
        w.write_bytes(b"\x01\x02")
        assert w.getvalue() == b"\x01\x02"

    def test_write_bytes_unaligned(self):
        w = BitWriter()
        w.write_bit(1)
        w.write_bytes(b"\x80")
        # 1 then 1000_0000 -> 1100_0000 0...
        assert w.getvalue() == bytes([0b1100_0000, 0])

    def test_bit_length_tracks(self):
        w = BitWriter()
        w.write_bits(0b1010, 4)
        assert w.bit_length == 4
        w.write_bits(0xFFFF, 16)
        assert w.bit_length == 20


class TestBitReader:
    def test_read_bits_roundtrip_simple(self):
        w = BitWriter()
        w.write_bits(0x2A, 7)
        w.write_bits(0x1234, 16)
        r = BitReader(w.getvalue())
        assert r.read_bits(7) == 0x2A
        assert r.read_bits(16) == 0x1234

    def test_eof_raises(self):
        r = BitReader(b"\xff")
        r.read_bits(8)
        with pytest.raises(EOFError):
            r.read_bit()

    def test_read_bytes_aligned(self):
        r = BitReader(b"\x01\x02\x03")
        assert r.read_bytes(2) == b"\x01\x02"
        assert r.read_bits(8) == 3

    def test_read_bytes_unaligned(self):
        w = BitWriter()
        w.write_bit(0)
        w.write_bits(0xAB, 8)
        r = BitReader(w.getvalue())
        r.read_bit()
        assert r.read_bytes(1) == b"\xab"

    def test_align_discards_partial_byte(self):
        r = BitReader(b"\xff\x01")
        r.read_bits(3)
        r.align()
        assert r.read_bits(8) == 1

    def test_at_eof(self):
        r = BitReader(b"\x00")
        assert not r.at_eof()
        r.read_bits(8)
        assert r.at_eof()

    def test_bits_consumed(self):
        r = BitReader(b"\x00\x00")
        r.read_bits(5)
        assert r.bits_consumed == 5


@given(st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 32))))
def test_bits_roundtrip_property(fields):
    """Arbitrary (value, width) sequences survive a write/read cycle."""
    fields = [(v & ((1 << w) - 1), w) for v, w in fields]
    w = BitWriter()
    for value, width in fields:
        w.write_bits(value, width)
    r = BitReader(w.getvalue())
    for value, width in fields:
        assert r.read_bits(width) == value


@given(st.lists(st.integers(min_value=0, max_value=2**63)))
def test_uvarint_roundtrip_property(values):
    blob = bytearray()
    for v in values:
        write_uvarint(blob, v)
    pos = 0
    for v in values:
        got, pos = read_uvarint(bytes(blob), pos)
        assert got == v
    assert pos == len(blob)


def test_uvarint_single_byte_for_small_values():
    assert len(uvarint(0)) == 1
    assert len(uvarint(127)) == 1
    assert len(uvarint(128)) == 2


def test_uvarint_rejects_negative():
    with pytest.raises(ValueError):
        uvarint(-1)


def test_uvarint_truncated_raises():
    with pytest.raises(EOFError):
        read_uvarint(b"\x80", 0)


# ---------------------------------------------------------------------------
# typed errors and the take_bytes helper
# ---------------------------------------------------------------------------

from repro.compress.bitio import take_bytes
from repro.errors import (
    CorruptStreamError, DecodeError, TruncatedStreamError,
)


def test_take_bytes_slices_and_advances():
    chunk, pos = take_bytes(b"abcdef", 1, 3, "chunk")
    assert chunk == b"bcd" and pos == 4


def test_take_bytes_zero_length():
    chunk, pos = take_bytes(b"ab", 2, 0, "empty tail")
    assert chunk == b"" and pos == 2


def test_take_bytes_refuses_silent_truncation():
    with pytest.raises(TruncatedStreamError) as exc_info:
        take_bytes(b"abc", 1, 10, "promised payload")
    assert "promised payload" in str(exc_info.value)


def test_take_bytes_rejects_negative_count():
    with pytest.raises(CorruptStreamError):
        take_bytes(b"abc", 0, -1, "negative")


def test_reader_eof_is_typed():
    with pytest.raises(TruncatedStreamError):
        BitReader(b"").read_bits(8)
    with pytest.raises(TruncatedStreamError):
        BitReader(b"\xff").read_bytes(2)


def test_uvarint_errors_are_typed():
    with pytest.raises(TruncatedStreamError):
        read_uvarint(b"\x80", 0)
    # An unterminated 10-byte varint is corruption, not just truncation.
    with pytest.raises(DecodeError):
        read_uvarint(b"\x80" * 11, 0)


def test_typed_errors_still_look_like_builtins():
    """Compatibility: callers catching EOFError/ValueError keep working."""
    assert issubclass(TruncatedStreamError, EOFError)
    assert issubclass(CorruptStreamError, ValueError)


def test_bits_remaining_property():
    reader = BitReader(b"\xab\xcd")
    assert reader.bits_remaining == 16
    reader.read_bits(5)
    assert reader.bits_remaining == 11


# ---------------------------------------------------------------------------
# bulk read_bytes fast path (regression: used to loop read_bits(8) per byte)
# ---------------------------------------------------------------------------


def _forbid_per_bit_calls(monkeypatch):
    """Patch read_bit/read_bits to fail loudly if read_bytes delegates."""

    def boom(self, *args):  # pragma: no cover - only fires on regression
        raise AssertionError("read_bytes fell back to per-bit reads")

    monkeypatch.setattr(BitReader, "read_bit", boom)
    monkeypatch.setattr(BitReader, "read_bits", boom)


def test_read_bytes_aligned_never_reads_per_bit(monkeypatch):
    data = bytes(range(256)) * 4
    r = BitReader(data)
    _forbid_per_bit_calls(monkeypatch)
    assert r.read_bytes(1024) == data
    assert r.at_eof()


def test_read_bytes_unaligned_never_reads_per_bit(monkeypatch):
    w = BitWriter()
    w.write_bits(0b101, 3)
    payload = bytes(range(256)) * 4
    w.write_bytes(payload)
    r = BitReader(w.getvalue())
    assert r.read_bits(3) == 0b101
    _forbid_per_bit_calls(monkeypatch)
    assert r.read_bytes(len(payload)) == payload


def test_read_bytes_reseats_bit_cursor():
    """Bit reads resume correctly after an unaligned bulk read."""
    w = BitWriter()
    w.write_bits(0b11, 2)
    w.write_bytes(b"\x5a\xa5")
    w.write_bits(0b1010, 4)
    r = BitReader(w.getvalue())
    assert r.read_bits(2) == 0b11
    assert r.read_bytes(2) == b"\x5a\xa5"
    assert r.read_bits(4) == 0b1010


@given(st.binary(max_size=64), st.integers(0, 7))
def test_read_bytes_matches_bitwise_reference(payload, skew):
    """Property: bulk reads equal the old per-byte read_bits(8) loop."""
    w = BitWriter()
    w.write_bits((1 << skew) - 1, skew)
    w.write_bytes(payload)
    r_bulk = BitReader(w.getvalue())
    r_bits = BitReader(w.getvalue())
    r_bulk.read_bits(skew)
    r_bits.read_bits(skew)
    reference = bytes(r_bits.read_bits(8) for _ in range(len(payload)))
    assert r_bulk.read_bytes(len(payload)) == reference == payload
    assert r_bulk.bits_consumed == r_bits.bits_consumed


# ---------------------------------------------------------------------------
# The literal codec both container formats share
# ---------------------------------------------------------------------------


@given(st.text(max_size=40))
def test_name_roundtrip(name):
    from repro.compress.bitio import read_name, write_name

    out = bytearray(b"\x07")
    write_name(out, name)
    assert read_name(bytes(out), 1, "name") == (name, len(out))


def test_name_reader_bounds_and_truncation_are_typed():
    from repro.compress.bitio import read_name, write_name
    from repro.errors import ResourceLimitError, ResourceLimits

    out = bytearray()
    write_name(out, "x" * 10)
    with pytest.raises(ResourceLimitError, match="symbol length"):
        read_name(bytes(out), 0, "symbol", ResourceLimits(max_name_bytes=9))
    with pytest.raises(TruncatedStreamError):
        read_name(bytes(out[:-1]), 0, "symbol")


def test_literal_key_is_the_encoding():
    """Two literals are the same exactly when they encode alike: a
    double's key is its bytes, so the signed zeros differ and a NaN
    equals itself; other literals are their own keys."""
    from repro.compress.bitio import DOUBLE, literal_key

    assert -0.0 == 0.0 and literal_key(-0.0) != literal_key(0.0)
    assert literal_key(2.5) == DOUBLE.pack(2.5)
    nan = float("nan")
    assert literal_key(nan) == literal_key(DOUBLE.unpack(DOUBLE.pack(nan))[0])
    assert literal_key(7) == 7 and literal_key("L3") == "L3"
