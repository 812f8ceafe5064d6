"""Every BRISC reader raises only typed errors on a corrupt image that
passes its container check.

A flipped byte in a BRI2/BRI3 image fails its CRC before any slot is
read, so this sweep forges the CRC after each flip; a BRI1 image has no
CRC at all.  ``decode_image``, the JIT and the in-place interpreter then
walk the corrupt slots, and each must either return or raise a
:class:`~repro.errors.DecodeError` (the interpreter may also raise
:class:`~repro.vm.interp.VMError`, its type for runtime faults).
"""

import zlib
from random import Random

import pytest

from repro.brisc import compress, decode_image, run_image
from repro.errors import DecodeError
from repro.jit import jit_compile
from repro.vm.interp import VMError

from .test_brisc_interp import compile_sample


def _flip(payload: bytes, rng: Random) -> bytearray:
    out = bytearray(payload)
    bit = rng.randrange(len(out) * 8)
    out[bit // 8] ^= 1 << (bit % 8)
    return out


def forged_bri2(blob: bytes, rng: Random) -> bytes:
    """One bit flipped in the BRI2 payload, CRC recomputed to match."""
    payload = _flip(blob[8:], rng)
    return b"BRI2" + zlib.crc32(payload).to_bytes(4, "little") + payload


def flipped_bri1(blob: bytes, rng: Random) -> bytes:
    """One bit flipped in the payload, behind the CRC-less BRI1 magic."""
    return b"BRI1" + _flip(blob[8:], rng)


READERS = [
    ("decode_image", decode_image, DecodeError),
    ("jit_compile", jit_compile, DecodeError),
    ("run_image", lambda blob: run_image(blob, cache_decoded=False,
                                         max_steps=2_000),
     (DecodeError, VMError)),
]


@pytest.fixture(scope="module")
def wc_image():
    return compress(compile_sample("wc")).image.blob


@pytest.mark.parametrize("mutate, seed, count", [
    (forged_bri2, 1234, 200),
    (flipped_bri1, 7, 100),
], ids=["bri2-forged-crc", "bri1"])
def test_readers_raise_only_typed_errors(wc_image, mutate, seed, count):
    rng = Random(seed)
    escaped = []
    for index in range(count):
        mutant = mutate(wc_image, rng)
        for name, read, allowed in READERS:
            try:
                read(mutant)
            except allowed:
                pass
            except Exception as exc:  # any other type breaks the contract
                escaped.append(f"#{index} {name}: "
                               f"{type(exc).__name__}: {exc}")
    assert not escaped, "\n".join(escaped)
