"""BRISC JIT tests: template splicing, determinism, throughput."""

import hashlib
from pathlib import Path

import pytest

import repro
from repro.brisc import compress
from repro.brisc.encode import encode_image
from repro.corpus.samples import SAMPLES
from repro.jit import BriscJIT, jit_compile
from repro.native import PPCLike, PentiumLike

from .test_brisc_encode import single_function_image, with_code
from .test_brisc_escape import _build_overflow_program

GOLDEN = Path(__file__).parent / "golden"

#: sha256 of ``jit_compile(blob, target).native_code`` for the golden
#: images (a BRI2 image and its BRI3 repack JIT to the same bytes) and
#: the escape-overflow image of ``test_brisc_escape``.
NATIVE_SHA256 = {
    ("fib", "PentiumLike"):
        "7f25db5ef211a0d2cde64218e63ed71941d0c1fa69c2f09ab25f03326e4a9b13",
    ("fib", "PPCLike"):
        "51aba57c942bdb3b05f02171c2cf1c4ae607b5b10979a36a9500e52ca424af04",
    ("wc", "PentiumLike"):
        "de02b68bf5679558a0061747cee79be20529ee394964c41ff37e6f42bbc2ed39",
    ("wc", "PPCLike"):
        "2512a4c721527823c53dcdfaffb5bb7ea53983f522f85ffd3819f1c01e9fd364",
    ("gen24", "PentiumLike"):
        "3394c65783695d198636eed85ff2a61a9f63d3722c0583e320881552f45432e1",
    ("gen24", "PPCLike"):
        "595e4b86e82c3cf604dcacea63de9a67106ce624a507a17777c05ff980e5ecc8",
    ("escape", "PentiumLike"):
        "5e98973bf04c8cb7946e97fec7c8bb0bdfb5f87df43525d3b2314dc2e9cb0146",
    ("escape", "PPCLike"):
        "1c5593167cbb5a3d8eff02b2cf1098d6d6f66132be0bf460c486a6d785ffc888",
}
TARGETS = pytest.mark.parametrize("target", [PentiumLike, PPCLike],
                                  ids=["pentium", "ppc"])


def image_for(name):
    return compress(repro.compile_c(SAMPLES[name], name)).image.blob


class TestCompilation:
    def test_produces_output(self):
        result = jit_compile(image_for("wc"))
        assert result.output_bytes > 0
        assert result.slots_compiled > 0

    def test_deterministic(self):
        blob = image_for("wc")
        a = jit_compile(blob).native_code
        b = jit_compile(blob).native_code
        assert a == b

    def test_output_size_matches_native_model(self):
        """Template splicing must produce exactly the per-instruction
        native sizes of the target model."""
        prog = repro.compile_c(SAMPLES["wc"], "wc")
        cp = compress(prog)
        target = PentiumLike()
        result = jit_compile(cp.image.blob, target)
        expected = target.program_size(prog)
        # The JIT compiles from patterns with representative operands, so
        # variable-length immediates may differ slightly — within 15%.
        assert abs(result.output_bytes - expected) <= expected * 0.15

    def test_ppc_target_produces_fixed_width(self):
        result = jit_compile(image_for("wc"), PPCLike())
        assert result.output_bytes % 4 == 0

    def test_offset_map_monotonic(self):
        jit = BriscJIT(image_for("calc"))
        native, offsets = jit.compile_function(0)
        keys = sorted(offsets)
        values = [offsets[k] for k in keys]
        assert values == sorted(values)
        assert values[0] == 0

    def test_every_function_compiled(self):
        blob = image_for("strings")
        jit = BriscJIT(blob)
        result = jit.compile_program()
        assert result.slots_compiled >= len(jit.image.functions)


class TestPinnedOutput:
    @TARGETS
    @pytest.mark.parametrize("container", ["bri2", "bri3"])
    @pytest.mark.parametrize("name", ["fib", "wc", "gen24"])
    def test_golden_images(self, name, container, target):
        blob = (GOLDEN / f"{name}.{container}").read_bytes()
        native = jit_compile(blob, target()).native_code
        assert hashlib.sha256(native).hexdigest() == \
            NATIVE_SHA256[(name, target.__name__)]

    @TARGETS
    def test_escaped_image(self, target):
        """This image has more block-start patterns than the 255-entry
        block-start table holds, so some opcodes escape to 2-byte ids."""
        blob = encode_image(_build_overflow_program(), [])[0].blob
        result = jit_compile(blob, target())
        assert result.slots_compiled == 301
        assert hashlib.sha256(result.native_code).hexdigest() == \
            NATIVE_SHA256[("escape", target.__name__)]


class TestCorruptImages:
    def test_branch_into_a_slot_rejected(self):
        """A branch must land on a slot start; the JIT rejects any other
        target exactly as ``decompress`` does, instead of patching it to
        native offset 0."""
        from repro.brisc import decompress
        from repro.brisc.encode import parse_image
        from repro.errors import CorruptStreamError
        from repro.vm.instr import Instr

        blob = single_function_image(Instr("li", (0, 1000)),
                                     Instr("jmp", ("L0",)), Instr("hlt", ()))
        code = parse_image(blob).functions[0].code
        assert code[5:7] == b"\x00\x00"  # jmp's target: the li at offset 0
        forged = with_code(blob, code[:5] + b"\x01\x00" + code[7:])
        message = "branch to mid-slot offset 1 in main"
        with pytest.raises(CorruptStreamError, match=message):
            decompress(forged)
        with pytest.raises(CorruptStreamError, match=message):
            jit_compile(forged)


class TestThroughput:
    def test_mb_per_second_positive(self):
        result = jit_compile(image_for("sort"))
        assert result.mb_per_second > 0

    def test_compile_time_linear_in_input(self):
        """The paper's point: template splicing is linear (no super-linear
        register allocation), so doubling the input roughly doubles the
        work, not more."""
        small = jit_compile(image_for("wc"))
        big = jit_compile(image_for("sort"))
        assert big.slots_compiled > small.slots_compiled
        # Bytes out per slot is bounded: no blowup with size.
        ratio_small = small.output_bytes / small.slots_compiled
        ratio_big = big.output_bytes / big.slots_compiled
        assert 0.3 < ratio_big / ratio_small < 3.0
