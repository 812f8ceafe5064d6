"""Multi-stream container tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress.streams import pack_streams, stored_streams, unpack_streams
from repro.errors import (
    CorruptStreamError, DecodeError, ResourceLimitError, ResourceLimits,
    UnsupportedFormatError,
)


def test_roundtrip_basic():
    streams = {"ops": b"abcabcabc" * 50, "lits": bytes(range(100))}
    assert unpack_streams(pack_streams(streams)) == streams


def test_empty_container():
    assert unpack_streams(pack_streams({})) == {}


def test_empty_stream_preserved():
    streams = {"empty": b"", "one": b"x"}
    assert unpack_streams(pack_streams(streams)) == streams


def test_uncompressed_mode():
    streams = {"a": b"zz" * 100}
    blob = pack_streams(streams, compress=False)
    assert unpack_streams(blob) == streams
    # Raw mode must store payload verbatim (container adds only framing).
    assert len(blob) >= 200


def test_tiny_streams_stored_raw_when_compression_loses():
    streams = {"tiny": b"ab"}
    blob = pack_streams(streams)
    assert unpack_streams(blob) == streams
    assert len(blob) < 30


def test_compression_applied_to_large_redundant_streams():
    streams = {"big": b"abcdefgh" * 1000}
    assert len(pack_streams(streams)) < 2000


def test_unicode_stream_names():
    streams = {"ADDRLP8": b"\x01", "CNSTI16": b"\x02\x03"}
    assert unpack_streams(pack_streams(streams)) == streams


def test_truncated_container_raises():
    blob = pack_streams({"a": b"hello world"})
    with pytest.raises((EOFError, ValueError)):
        unpack_streams(blob[:-3])


@given(st.dictionaries(st.text(min_size=1, max_size=10), st.binary(max_size=500),
                       max_size=8))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(streams):
    assert unpack_streams(pack_streams(streams)) == streams

# ---------------------------------------------------------------------------
# integrity checking and typed errors
# ---------------------------------------------------------------------------


def test_checksummed_roundtrip():
    streams = {"ops": b"abc" * 100, "lits": bytes(range(64))}
    blob = pack_streams(streams, checksums=True)
    assert unpack_streams(blob) == streams
    # Checksums cost exactly 4 bytes per stream over the unchecked form.
    assert len(blob) == len(pack_streams(streams)) + 4 * len(streams)


def test_crc_mismatch_detected():
    blob = bytearray(pack_streams({"s": b"payload bytes here"},
                                  checksums=True))
    blob[-3] ^= 0x40  # flip a payload bit, not the CRC itself
    with pytest.raises(CorruptStreamError):
        unpack_streams(bytes(blob))


def test_legacy_entries_without_crc_still_decode():
    streams = {"s": b"old format data" * 10}
    assert unpack_streams(pack_streams(streams, checksums=False)) == streams


def test_unknown_flags_rejected():
    blob = bytearray(pack_streams({"s": b"x"}))
    # The flag byte follows count(1) + name_len(1) + name(1).
    assert blob[3] in (0, 1)
    blob[3] |= 0x80
    with pytest.raises(CorruptStreamError):
        unpack_streams(bytes(blob))


def test_forged_stream_count_hits_limit_not_memory():
    blob = bytearray(pack_streams({"s": b"x"}))
    forged = b"\xff\xff\xff\xff\x7f" + bytes(blob[1:])  # count = 2^34-ish
    with pytest.raises(ResourceLimitError):
        unpack_streams(bytes(forged))


def test_custom_limits_enforced():
    streams = {f"s{i}": b"x" for i in range(8)}
    blob = pack_streams(streams)
    with pytest.raises(ResourceLimitError):
        unpack_streams(blob, limits=ResourceLimits(max_streams=4))


def test_errors_are_decode_errors():
    try:
        unpack_streams(pack_streams({"a": b"hello world"})[:-3])
    except DecodeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected a DecodeError subclass")


# ---------------------------------------------------------------------------
# The retired arithmetic-coded payload flag
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("checksums", [False, True])
def test_arith_coded_stream_is_unsupported(checksums):
    """Flag 4 marked an arithmetic-coded payload; no encoder writes one
    now, so a reader meeting it says the format is unsupported."""
    blob = bytearray(pack_streams({"s": b"qq" * 300}, compress=False,
                                  checksums=checksums))
    # count(1) + name_len(1) + name(1), then the flag byte.
    assert blob[3] == (2 if checksums else 0)
    blob[3] |= 4
    with pytest.raises(UnsupportedFormatError, match="flag 4"):
        unpack_streams(bytes(blob))
    with pytest.raises(UnsupportedFormatError):
        stored_streams(bytes(blob))


# ---------------------------------------------------------------------------
# Skipping deflate where it cannot win, and stored payloads
# ---------------------------------------------------------------------------


def _seeded_streams(seed):
    """Streams of 0-400 bytes, some repetitive enough to compress."""
    rng = random.Random(seed)
    streams = {}
    for i in range(12):
        n = rng.randrange(401)
        if rng.random() < 0.5:
            data = bytes(rng.randrange(3) for _ in range(n))
        else:
            data = bytes(rng.randrange(256) for _ in range(n))
        streams[f"s{i}"] = data
    return streams


@pytest.mark.parametrize("checksums", [False, True])
def test_skip_equals_always_compress(monkeypatch, checksums):
    from repro.compress import deflate

    for seed in range(10):
        streams = _seeded_streams(seed)
        skipped = pack_streams(streams, checksums=checksums)
        with monkeypatch.context() as patch:
            # The reference: try deflate on every stream, however short.
            patch.setattr(deflate, "MIN_BLOCK_BYTES", -1)
            always = pack_streams(streams, checksums=checksums)
        assert skipped == always
    assert any(len(deflate.compress(data)) < len(data)
               for data in _seeded_streams(0).values())


def test_short_payloads_never_reach_deflate(monkeypatch):
    from repro.compress import deflate

    calls = []
    real = deflate.compress
    monkeypatch.setattr(deflate, "compress",
                        lambda data: calls.append(len(data)) or real(data))
    streams = _seeded_streams(3)
    pack_streams(streams)
    assert sorted(calls) == sorted(
        len(data) for data in streams.values()
        if len(data) > deflate.MIN_BLOCK_BYTES)


def test_stored_streams_frame_to_the_container_size():
    streams = _seeded_streams(4)
    blob = pack_streams(streams, checksums=True)
    stored = stored_streams(blob)
    assert len(pack_streams(stored, compress=False, checksums=True)) == \
        len(blob)
    assert unpack_streams(blob) == streams


def test_wire_compile_deflates_each_long_stream_once(monkeypatch):
    """A wire-only compile runs deflate once per stream that is longer
    than the smallest deflate block, and on nothing else."""
    from repro.compress import deflate
    from repro.corpus import suite_source
    from repro.pipeline import Toolchain

    calls = []
    real = deflate.compress
    monkeypatch.setattr(deflate, "compress",
                        lambda data: calls.append(len(data)) or real(data))
    res = Toolchain().compile(suite_source("wc"), name="wc", stages=("wire",))
    streams = unpack_streams(res.wire_blob[4:])
    long_streams = [len(data) for data in streams.values()
                    if len(data) > deflate.MIN_BLOCK_BYTES]
    assert sorted(calls) == sorted(long_streams)
    assert len(long_streams) < len(streams)
