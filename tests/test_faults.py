"""Fault-injection harness tests: the decode-path robustness contract.

Two layers:

* the harness itself (mutation determinism, outcome classification) is
  exercised against tiny synthetic codecs with known behaviour;
* the real containers are swept: every corpus sample's wire blob and a
  BRISC image go through every mutation class, and nothing but typed
  :class:`DecodeError` subclasses may escape the decoders.

Mutation counts here are bounded for test-suite speed; the acceptance
sweep (``python -m repro fuzz``) runs the full 500-per-container budget.
"""

from random import Random

import pytest

from repro.brisc import compress, decode_image
from repro.cfront import compile_to_ast
from repro.codegen import generate_program
from repro.corpus import sample_names, get_sample
from repro.errors import CorruptStreamError, DecodeError
from repro.faults import (
    MUTATION_KINDS, apply_mutation, fuzz_decoder,
)
from repro.ir import dump_module, lower_unit
from repro.wire import decode_module, encode_module

# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------


BLOB = bytes(range(32)) * 4


@pytest.mark.parametrize("kind", MUTATION_KINDS)
def test_mutations_are_deterministic(kind):
    a = apply_mutation(BLOB, kind, Random(42))
    b = apply_mutation(BLOB, kind, Random(42))
    assert a == b
    c = apply_mutation(BLOB, kind, Random(43))
    assert isinstance(c, bytes)


def test_mutation_shapes():
    rng = Random(0)
    assert len(apply_mutation(BLOB, "bit_flip", rng)) == len(BLOB)
    assert len(apply_mutation(BLOB, "truncate", rng)) < len(BLOB)
    assert len(apply_mutation(BLOB, "delete", rng)) == len(BLOB) - 1
    assert len(apply_mutation(BLOB, "duplicate", rng)) == len(BLOB) + 1
    swapped = apply_mutation(BLOB, "swap", rng)
    assert len(swapped) == len(BLOB) and sorted(swapped) == sorted(BLOB)


def test_bit_flip_changes_exactly_one_bit():
    flipped = apply_mutation(BLOB, "bit_flip", Random(7))
    diff = [(a ^ b) for a, b in zip(BLOB, flipped) if a != b]
    assert len(diff) == 1 and bin(diff[0]).count("1") == 1


def test_empty_blob_and_unknown_kind():
    assert apply_mutation(b"", "bit_flip", Random(0)) == b""
    with pytest.raises(ValueError):
        apply_mutation(BLOB, "nonesuch", Random(0))


# ---------------------------------------------------------------------------
# harness classification (synthetic codecs)
# ---------------------------------------------------------------------------


def _checked_decode(blob: bytes) -> bytes:
    """A toy codec: payload + trailing CRC32."""
    import zlib

    if len(blob) < 4:
        raise CorruptStreamError("too short")
    payload, stored = blob[:-4], int.from_bytes(blob[-4:], "little")
    if zlib.crc32(payload) != stored:
        raise CorruptStreamError("checksum mismatch")
    return payload


def _checked_encode(payload: bytes) -> bytes:
    import zlib

    return payload + zlib.crc32(payload).to_bytes(4, "little")


def test_well_behaved_decoder_reports_ok():
    blob = _checked_encode(b"the quick brown fox" * 20)
    report = fuzz_decoder(blob, _checked_decode, mutations=60, seed=3)
    assert report.ok
    assert report.counts.get("untyped", 0) == 0
    assert report.counts.get("detected", 0) > 0
    assert sum(report.counts.values()) == 60
    assert "OK" in report.summary()


def test_untyped_exceptions_are_contract_violations():
    def leaky(blob: bytes) -> bytes:
        if len(blob) != 65:  # any length-changing mutation leaks
            raise IndexError("leaked internal error")
        return blob

    report = fuzz_decoder(b"\x55" + bytes(64), leaky, mutations=40, seed=1)
    assert not report.ok
    assert any(f.outcome == "untyped" for f in report.failures)
    untyped = [f for f in report.failures if f.outcome == "untyped"]
    assert "IndexError" in untyped[0].detail
    assert untyped[0].index >= 0  # replayable ordinal


def test_silent_wrong_answers_are_contract_violations():
    report = fuzz_decoder(bytes(range(64)), lambda b: bytes(b),
                          mutations=30, seed=2)
    assert not report.ok
    assert any(f.outcome == "wrong_answer" for f in report.failures)


def test_hang_detection():
    import time

    def sleepy(blob: bytes) -> bytes:
        if blob != bytes(16):
            time.sleep(30)
        return blob

    report = fuzz_decoder(bytes(16), sleepy, mutations=2, seed=0,
                          deadline=0.2)
    assert any(f.outcome == "hang" for f in report.failures)


def test_canonical_projection_used_for_equality():
    # Decoder returns a list; canonical projects to its sorted form, so a
    # mutation that only reorders is "intact".
    blob = b"ab"
    report = fuzz_decoder(blob, lambda b: list(b), mutations=5, seed=4,
                          kinds=("swap",), canonical=sorted)
    assert report.ok
    assert report.counts.get("intact", 0) + report.counts.get(
        "unchanged", 0) == 5


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        fuzz_decoder(b"xx", bytes, mutations=0)
    with pytest.raises(ValueError):
        fuzz_decoder(b"xx", bytes, kinds=())


# ---------------------------------------------------------------------------
# the real decoders: corpus sweep
# ---------------------------------------------------------------------------


def _wire_blob(name: str) -> bytes:
    source = get_sample(name)
    return encode_module(lower_unit(compile_to_ast(source, name), name))


@pytest.mark.parametrize("name", sample_names())
def test_wire_decoder_contract_over_corpus(name):
    """Every sample, every mutation class: only DecodeError may escape."""
    blob = _wire_blob(name)
    rng = Random(hash(name) % (1 << 32))
    for index in range(3 * len(MUTATION_KINDS)):  # bounded per unit
        kind = MUTATION_KINDS[index % len(MUTATION_KINDS)]
        mutated = apply_mutation(blob, kind, rng)
        if mutated == blob:
            continue
        try:
            decode_module(mutated)
        except DecodeError:
            pass  # the typed taxonomy is the contract
    # No other exception type may reach this frame (pytest would fail).


def test_wire_fuzz_report_clean_on_sample():
    blob = _wire_blob("wc")
    report = fuzz_decoder(blob, decode_module, target="wc.wire",
                          mutations=50, seed=11, canonical=dump_module)
    assert report.ok, [f.detail for f in report.failures]


def test_brisc_fuzz_report_clean_on_sample():
    source = get_sample("wc")
    program = generate_program(lower_unit(compile_to_ast(source, "wc"), "wc"))
    blob = compress(program).image.blob
    report = fuzz_decoder(blob, decode_image, target="wc.brisc",
                          mutations=50, seed=12)
    assert report.ok, [f.detail for f in report.failures]


# ---------------------------------------------------------------------------
# chunked containers: targeted corruption
# ---------------------------------------------------------------------------


def _wire3_blob():
    from repro.wire import encode_module_v3

    source = get_sample("wc")
    module = lower_unit(compile_to_ast(source, "wc"), "wc")
    return encode_module_v3(module, chunk_bytes=256)


def test_corrupt_chunk_is_deterministic():
    from repro.faults import corrupt_chunk

    blob = _wire3_blob()
    a = corrupt_chunk(blob, 0, Random(9))
    b = corrupt_chunk(blob, 0, Random(9))
    assert a == b and a != blob


def test_corrupt_chunk_rejects_bad_ids():
    from repro.faults import corrupt_chunk

    blob = _wire3_blob()
    with pytest.raises(ValueError):
        corrupt_chunk(blob, 999, Random(0))


def test_corrupt_chunk_needs_a_chunked_container():
    from repro.errors import UnsupportedFormatError
    from repro.faults import corrupt_chunk
    from repro.ir import lower_unit as _lower

    v2 = encode_module(_lower(compile_to_ast(get_sample("wc"), "wc"), "wc"))
    with pytest.raises(UnsupportedFormatError):
        corrupt_chunk(v2, 0, Random(0))


def test_chunked_fuzz_summary_reports_isolation():
    from repro.faults import fuzz_chunked_container

    report = fuzz_chunked_container(_wire3_blob(), target="wc.wire3",
                                    rounds=4, seed=3)
    assert report.ok, [f.detail for f in report.failures]
    assert report.counts.get("isolated", 0) > 0
    assert "isolated=" in report.summary()
