"""Golden byte-identity tests for the compression kernels and containers.

The fixtures in ``tests/golden/`` were produced by the pre-rewrite
(per-bit, per-symbol) kernels at commit d16ace2.  Every kernel rewrite
must reproduce them bit for bit: the wire (WIR2) and BRISC (BRI2)
containers are long-lived interchange formats, and the paper's size
tables are only comparable if the encodings never drift.  If one of
these tests fails, the change is a format break, not a perf tweak.
"""

import pathlib
import random

import pytest

from repro.brisc.encode import decode_image, repack_v3
from repro.compress import arith, deflate
from repro.compress.huffman import decode_symbols, encode_symbols
from repro.compress.mtf import mtf_decode, mtf_encode
from repro.wire.format import decode_module, encode_module, encode_module_v3

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: Units with pinned WIR2/BRI2 and WIR3/BRI3 containers (see
#: TestContainerGoldens).
UNITS = ["wc", "fib", "gen24"]

#: The chunk cap the seekable goldens were built with: small enough that
#: every unit splits into at least two chunks.
GOLDEN_CHUNK_BYTES = 64


@pytest.fixture(scope="module")
def kernel_input():
    """The seeded corpus-like byte stream the kernel fixtures were cut from."""
    data = (GOLDEN / "kernel_input.bin").read_bytes()
    # Defend the fixture itself: it is the seeded stream, not arbitrary.
    rng = random.Random(7)
    chunk = bytes(rng.randrange(256) for _ in range(64))
    assert data == b"".join(chunk[: rng.randrange(16, 64)] for _ in range(120))
    return data


class TestKernelGoldens:
    def test_deflate_bytes_unchanged(self, kernel_input):
        blob = deflate.compress(kernel_input)
        assert blob == (GOLDEN / "deflate.bin").read_bytes()
        assert deflate.decompress(blob) == kernel_input

    def test_huffman_bytes_unchanged(self):
        rng = random.Random(3)
        symbols = [min(63, int(rng.expovariate(0.2))) for _ in range(5000)]
        blob = encode_symbols(symbols, 64)
        assert blob == (GOLDEN / "huffman.bin").read_bytes()
        assert decode_symbols(blob) == symbols

    def test_mtf_indices_unchanged(self):
        rng = random.Random(5)
        stream = [rng.choice([4, 8, 12, 16, 20, 24]) for _ in range(5000)]
        indices, novel = mtf_encode(stream)
        assert bytes(bytearray(indices)) == \
            (GOLDEN / "mtf_indices.bin").read_bytes()
        assert novel == [20, 12, 24, 4, 16, 8]
        assert mtf_decode(indices, novel) == stream

    def test_arith_order1_bytes_unchanged(self, kernel_input):
        data = kernel_input[:2000]
        blob = arith.compress(data, order=1)
        assert blob == (GOLDEN / "arith1.bin").read_bytes()
        assert arith.decompress(blob, order=1) == data


def _sources():
    from repro.corpus import generate_program_source
    from repro.corpus.suite import suite_source

    return {
        "wc": suite_source("wc"),
        "fib": (GOLDEN / "fib.c").read_text(),
        "gen24": generate_program_source(functions=24, seed=3),
    }


class TestContainerGoldens:
    """WIR2/BRI2 and WIR3/BRI3 images of seeded corpus units must never
    drift.

    ``wc`` and ``fib`` each build their BRISC dictionary in one pass with
    at most four admissions; ``gen24`` (a generated unit, pinned at
    commit bbc6d9c) runs five passes and admits 80 patterns, so it pins
    the builder's incremental rescans as well.  The seekable goldens
    (pinned at commit 042deef) split into 2, 2 and 25 chunks, so they pin
    the chunk table, the header framing and the chunk payloads.
    """

    @pytest.fixture(scope="class")
    def toolchain(self):
        from repro.pipeline import Toolchain

        return Toolchain()

    @pytest.fixture(scope="class")
    def results(self, toolchain):
        return {unit: toolchain.compile(source, name=unit)
                for unit, source in _sources().items()}

    @pytest.fixture(scope="class")
    def seekable(self, results):
        """Each unit's (WIR3, BRI3) pair, framed from its flat build the
        way the service frames a fetch."""
        return {unit: (encode_module_v3(res.module,
                                        chunk_bytes=GOLDEN_CHUNK_BYTES),
                       repack_v3(res.brisc.image.blob, GOLDEN_CHUNK_BYTES))
                for unit, res in results.items()}

    @pytest.mark.parametrize("unit", UNITS)
    def test_wire_container_unchanged(self, results, unit):
        golden = (GOLDEN / f"{unit}.wir2").read_bytes()
        assert results[unit].wire_blob == golden

    @pytest.mark.parametrize("unit", UNITS)
    def test_brisc_container_unchanged(self, results, unit):
        golden = (GOLDEN / f"{unit}.bri2").read_bytes()
        assert results[unit].brisc.image.blob == golden

    @pytest.mark.parametrize("unit", UNITS)
    def test_seekable_wire_container_unchanged(self, seekable, unit):
        golden = (GOLDEN / f"{unit}.wir3").read_bytes()
        assert seekable[unit][0] == golden

    @pytest.mark.parametrize("unit", UNITS)
    def test_seekable_brisc_container_unchanged(self, seekable, unit):
        golden = (GOLDEN / f"{unit}.bri3").read_bytes()
        assert seekable[unit][1] == golden

    def test_generated_unit_is_a_multi_pass_build(self, results):
        build = results["gen24"].brisc.build
        assert build.passes == 5
        assert build.dictionary_size - build.base_patterns == 80

    @pytest.mark.parametrize("unit", UNITS)
    def test_golden_containers_decode(self, unit):
        module = decode_module((GOLDEN / f"{unit}.wir2").read_bytes())
        assert module.functions
        program = decode_image((GOLDEN / f"{unit}.bri2").read_bytes())
        assert program.functions

    def test_roundtrip_through_reencode(self):
        """Decoding a golden wire blob and re-encoding reproduces it."""
        golden = (GOLDEN / "fib.wir2").read_bytes()
        assert encode_module(decode_module(golden)) == golden
