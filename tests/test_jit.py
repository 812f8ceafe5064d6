"""BRISC JIT tests: template splicing, determinism, throughput."""

import hashlib
from pathlib import Path

import pytest

import repro
from repro.brisc import compress
from repro.brisc.encode import encode_image
from repro.corpus.samples import SAMPLES
from repro.jit import BriscJIT, jit_compile
from repro.jit.compiler import _TABLES
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
#: sha256 of ``jit_compile(image_for(name), target).native_code`` for
#: every sample, measured before the JIT kept a template table per target.
SAMPLE_SHA256 = {
    ("bf", "PentiumLike"):
        "bb426ddf44bb4ca77b9d7bef05f2b1d91fe39e20345af263b0a74ca30ef4e68b",
    ("bf", "PPCLike"):
        "a73b23cc4823fa33689a02b0a991910cb965ee704c6c69c8f96c1cccfc5ab0bf",
    ("bst", "PentiumLike"):
        "0bd93ec2578d490283db8d11ee157a6f45e4ba4cfc004f0290c4901289f16c70",
    ("bst", "PPCLike"):
        "bb856314f143051b8c59ee06923ca6e941a4e51f15ed59bbf9eded21e66ae5df",
    ("calc", "PentiumLike"):
        "f523b71abce78915056b93251feac830ca8dd39d0b11f00e2efc03bdb828f062",
    ("calc", "PPCLike"):
        "8275695c4b1e9a1abc49112bc4637ab2d32bde8d2c846fc7f0b957025ac3b3ce",
    ("crc32", "PentiumLike"):
        "8f0101059c0bd8a1b3091854d4f180dc446f4f4aab674bdfec300d84e00b721f",
    ("crc32", "PPCLike"):
        "291017419fa2f3a557a61c820bef3aeae24d1fe5cb9f1f7e24987511b40b7ff2",
    ("hashtab", "PentiumLike"):
        "08dd88f0cb57a3ce65391dd793426f75cc67ffa6bd481da46ff93207d9bfea3f",
    ("hashtab", "PPCLike"):
        "5108c34dcb83699852256a2c70cff17e29d0fa528e55dad6c211df6141a02cdb",
    ("life", "PentiumLike"):
        "40dd93647a07a472aea2ffa23554e1a0215ead80800607bbf3bce22ebd96f712",
    ("life", "PPCLike"):
        "7d9e5fe16d1289b34314a44f562dca24a5c5a9a9fd4494b8c3338d7b8ac27c17",
    ("lzss", "PentiumLike"):
        "635e2c0e5da15826f9af341126b56f4e9a0aa8450c5a218ba9871b672aeba03a",
    ("lzss", "PPCLike"):
        "341fb668e29cc3a81dd3982629f23bedf12763f84954d1a591539fe9b6185f7e",
    ("matrix", "PentiumLike"):
        "2d58d1d2a02154155531419d75f9cbcaf9e33c3fd1c78ca581efff0b40db5918",
    ("matrix", "PPCLike"):
        "5f498732da05c4e7be82f95b83d2a5f169f394e29ecbb2131f45f3b6f310f449",
    ("queens", "PentiumLike"):
        "57bb119f1951c0637de41b59117d408a08f4c450e7de0a1df60ab344a4a11b15",
    ("queens", "PPCLike"):
        "194c7a471848536677ac70784e3f19f6c61f12976cf63dce6de2787e04baa2bb",
    ("rle", "PentiumLike"):
        "d19ef5500cd4029edadd90f274d0ef38f92afbef50e0896dc477603b481cd04d",
    ("rle", "PPCLike"):
        "849dd110ecdd383c061ed2d8b255e20e8944ee6528b7c266181b5937982100c7",
    ("sort", "PentiumLike"):
        "2acbeab20f26cfb4ff194cdb050230380e3e738d0085488b4db0b96722bb3bfe",
    ("sort", "PPCLike"):
        "307ede89c58ea0570e11755b4cdb73a35d3d3a86957c29cc29b3841155796711",
    ("stackvm", "PentiumLike"):
        "9ab18020822527bf7476040b59ef6ea93f4af4440919a2ab3405a6575d57ca27",
    ("stackvm", "PPCLike"):
        "77a8903d1e161b41897202620e520f1efb15cd3c23c482e37da14dee04fe6012",
    ("strings", "PentiumLike"):
        "79959c3017a4474d0a0a22b1a7423c27dcfd1f300272b14e51ca185c18bc9701",
    ("strings", "PPCLike"):
        "ffafe73556076083d5735527a15567960d60c97e7ac3e05101f9b81575bb9f51",
    ("wc", "PentiumLike"):
        "de02b68bf5679558a0061747cee79be20529ee394964c41ff37e6f42bbc2ed39",
    ("wc", "PPCLike"):
        "2512a4c721527823c53dcdfaffb5bb7ea53983f522f85ffd3819f1c01e9fd364",
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


@pytest.fixture(scope="module")
def sample_images():
    return {name: image_for(name) for name in sorted(SAMPLES)}


class TestTemplateTable:
    """The splice plans a target's table holds depend only on the target
    and the dictionary entry, so what the table already holds never
    changes a byte of the output."""

    @TARGETS
    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_samples_pinned_whatever_the_table_holds(self, sample_images,
                                                     name, target):
        other = PPCLike if target is PentiumLike else PentiumLike
        expected = SAMPLE_SHA256[(name, target.__name__)]

        def native_sha256():
            native = jit_compile(sample_images[name], target()).native_code
            return hashlib.sha256(native).hexdigest()

        _TABLES.clear()
        assert native_sha256() == expected  # the table empty
        _TABLES.clear()
        for other_name, blob in sample_images.items():
            if other_name != name:
                jit_compile(blob, target())
        assert native_sha256() == expected  # after every other sample
        _TABLES.clear()
        for blob in sample_images.values():
            jit_compile(blob, other())
        assert native_sha256() == expected  # after the other target


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
