"""BRISC image encoding/decoding and Markov model tests."""

import pytest

import repro
from repro.brisc import compress, decompress
from repro.brisc.encode import parse_image
from repro.brisc.markov import CTX_BB, CTX_ENTRY, build_markov
from repro.brisc.slots import build_slots
from repro.corpus.samples import SAMPLES
from repro.errors import CorruptStreamError, TruncatedStreamError
from repro.vm import run_program
from repro.vm.instr import Instr


def compile_sample(name):
    return repro.compile_c(SAMPLES[name], name)


class TestMarkov:
    def test_special_contexts_exist(self):
        prog = compile_sample("wc")
        model, _ = build_markov(build_slots(prog))
        assert CTX_ENTRY in model.tables
        assert CTX_BB in model.tables

    def test_tables_ordered_by_frequency(self):
        prog = compile_sample("calc")
        model, _ = build_markov(build_slots(prog))
        for table in model.tables.values():
            assert len(table) == len(set(table))  # no duplicates

    def test_all_successor_tables_fit_a_byte(self):
        prog = compile_sample("sort")
        model, _ = build_markov(build_slots(prog))
        # The paper: "at most 244 instruction patterns can follow" any
        # pattern; our limit is 255 with escapes.
        assert model.max_successors() <= 256


class TestImageStructure:
    def test_parse_image_fields(self):
        cp = compress(compile_sample("wc"))
        image = parse_image(cp.image.blob)
        assert image.entry == "main"
        assert image.patterns
        assert image.functions
        assert CTX_ENTRY in image.tables

    def test_breakdown_sums_to_less_than_total(self):
        cp = compress(compile_sample("wc"))
        assert sum(cp.image.breakdown.values()) <= cp.image.size

    def test_code_segment_size(self):
        cp = compress(compile_sample("wc"))
        assert cp.image.code_segment_size == (
            cp.image.breakdown["code"] + cp.image.breakdown["dictionary"]
            + cp.image.breakdown["tables"])

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            parse_image(b"NOPE" + bytes(20))

    def test_opcode_plus_operand_bytes_equal_code(self):
        cp = compress(compile_sample("wc"))
        assert cp.image.opcode_bytes + cp.image.operand_bytes == \
            cp.image.breakdown["code"]


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["wc", "calc", "strings", "queens"])
    def test_decompressed_program_runs_identically(self, name):
        prog = compile_sample(name)
        base = run_program(prog)
        cp = compress(prog)
        back = decompress(cp.image.blob)
        redo = run_program(back)
        assert (redo.exit_code, redo.output) == (base.exit_code, base.output)

    def test_decompressed_instruction_stream_equivalent(self):
        prog = compile_sample("wc")
        cp = compress(prog)
        back = decompress(cp.image.blob)
        # Same instruction multiset per function (labels renamed).
        for a, b in zip(prog.functions, back.functions):
            assert a.name == b.name
            assert len(a.code) == len(b.code)
            assert [i.name for i in a.code] == [i.name for i in b.code]

    def test_frame_metadata_preserved(self):
        prog = compile_sample("wc")
        back = decompress(compress(prog).image.blob)
        for a, b in zip(prog.functions, back.functions):
            assert a.frame_size == b.frame_size
            assert a.param_bytes == b.param_bytes

    def test_globals_preserved(self):
        prog = compile_sample("wc")
        back = decompress(compress(prog).image.blob)
        assert {g.name for g in back.globals} == \
            {g.name for g in prog.globals}


class TestRandomAccess:
    def test_block_starts_decodable_independently(self):
        """The defining BRISC property: decoding may begin at any basic
        block boundary (that is what the special Markov contexts buy)."""
        from repro.brisc.encode import decode_slot

        cp = compress(compile_sample("calc"))
        image = parse_image(cp.image.blob)
        for fn in image.functions:
            for offset in sorted(fn.bb_offsets):
                pid, parts, nxt = decode_slot(image, fn, offset, CTX_BB)
                assert parts
                assert pid < len(image.patterns)
                assert len(parts) == len(image.patterns[pid].parts)
                assert nxt > offset

    def test_function_entries_decodable(self):
        from repro.brisc.encode import decode_slot

        cp = compress(compile_sample("strings"))
        image = parse_image(cp.image.blob)
        for fn in image.functions:
            _, parts, _ = decode_slot(image, fn, 0, CTX_ENTRY)
            assert parts[0][0] == "enter"


def single_function_image(*insns):
    """A BRI2 image of one function ``main``, one base-pattern slot per
    instruction; only the first is a block start, labelled ``L0``."""
    from repro.brisc.encode import encode_image
    from repro.brisc.pattern import DictPattern, pattern_of_instr
    from repro.brisc.slots import Slot, SlotFunction, SlotProgram

    slots = [Slot(insns=(i,), pattern=DictPattern((pattern_of_instr(i),)),
                  is_block_start=(k == 0), labels=("L0",) if k == 0 else ())
             for k, i in enumerate(insns)]
    program = SlotProgram("one", functions=[SlotFunction("main", slots)])
    return encode_image(program, [])[0].blob


def bri2(payload):
    """A BRI2 image of ``payload`` with a CRC that matches it."""
    import zlib

    return b"BRI2" + zlib.crc32(payload).to_bytes(4, "little") + payload


def with_code(blob, code):
    """``single_function_image``'s image with the function's code bytes
    replaced by ``code`` (same length) and the CRC forged to match."""
    payload = blob[8:]
    old = parse_image(blob).functions[0].code
    assert len(code) == len(old)
    assert payload.endswith(old + b"\x00")  # then no block offsets
    return bri2(payload[:-len(old) - 1] + code + b"\x00")


class TestForgedImages:
    def test_f_nibble_outside_register_file_rejected(self):
        """A 4-bit ``f`` operand can name f8..f15; the register file has
        eight, so the reader rejects the slot instead of handing the
        interpreter an index past it."""
        from repro.brisc import run_image
        from repro.errors import CorruptStreamError
        from repro.vm.instr import Instr

        mov = Instr("mov.d", (1, 2))
        blob = single_function_image(mov, Instr("hlt", ()))
        assert decompress(blob).functions[0].code[0] == mov
        code = parse_image(blob).functions[0].code
        assert code[1] == 0x12  # mov.d's two f nibbles follow its opcode
        forged = with_code(blob, code[:1] + b"\x92" + code[2:])
        with pytest.raises(CorruptStreamError, match="f9"):
            decompress(forged)
        with pytest.raises(CorruptStreamError, match="f9"):
            run_image(forged, cache_decoded=False)

    def test_zero_alignment_rejected(self):
        """Alignment 0 would divide by zero when the interpreter lays out
        the globals."""
        from repro.brisc import run_image
        from repro.brisc.encode import encode_image
        from repro.errors import CorruptStreamError
        from repro.ir.tree import GlobalData

        program = compile_sample("wc")
        extra = GlobalData("aligned_word", 4, 4)
        blob = encode_image(build_slots(program),
                            program.globals + [extra])[0].blob
        record = b"\x0caligned_word\x04\x04"  # name, size 4, align 4
        payload = blob[8:]
        assert payload.count(record) == 1
        forged = bri2(payload.replace(record, record[:-1] + b"\x00"))
        with pytest.raises(CorruptStreamError, match="alignment 0"):
            decompress(forged)
        with pytest.raises(CorruptStreamError, match="alignment 0"):
            run_image(forged)

    def test_globals_section_cuts_are_typed(self):
        """The globals reader takes one-byte fields inline and wider ones
        through ``read_uvarint``: both read a section back whole, and a
        cut anywhere in it is a typed truncation."""
        from repro.container.data import read_globals, write_globals
        from repro.ir.tree import GlobalData, PtrInit, ScalarInit

        items = [ScalarInit(0, 1, 5), ScalarInit(1, 1, 97),
                 ScalarInit(200, 4, -70000), ScalarInit(300, 8, 2.5),
                 PtrInit(392, "mixed")]
        section = bytearray()
        write_globals(section, [GlobalData("mixed", 400, 4, items)])
        globals_, end = read_globals(bytes(section), 0)
        assert (globals_[0].items, end) == (items, len(section))
        for cut in range(len(section)):
            with pytest.raises(TruncatedStreamError):
                read_globals(bytes(section[:cut]), 0)


_MOV = Instr("mov.i", (1, 2))
_HLT = Instr("hlt", ())
_LI_H = Instr("li", (1, 1000))  # an ``h`` operand: e8 03

#: One forged slot per check of the slot reader: the instructions of a
#: ``single_function_image``, its code bytes forged (same length), the
#: error and a substring of its message, and the substring the JIT raises
#: where it reads those bytes (it splices operands raw, so it never reads
#: a symbol index).
_FORGED_SLOTS = [
    # mov.i's opcode byte 00 in the entry context (-1) becomes 05.
    pytest.param((_MOV, _HLT), "051200", CorruptStreamError,
                 "invalid opcode byte 5 in context -1",
                 "invalid opcode byte 5 in context -1", id="opcode-byte"),
    pytest.param((_LI_H, _HLT), "ff341203" "00", CorruptStreamError,
                 "slot references pattern 4660 of 2",
                 "slot references pattern 4660 of 2", id="escaped-id"),
    pytest.param((_MOV, _HLT), "0012" "ff", TruncatedStreamError,
                 "image ends before escaped pattern id",
                 "image ends before escaped pattern id", id="escape-cut"),
    # The last byte, hlt's opcode, becomes mov.i's, whose nibbles are cut.
    pytest.param((_MOV, Instr("mov.i", (3, 4)), _HLT), "0012003400",
                 TruncatedStreamError, "image ends before operand nibbles",
                 "image ends before the operands of a slot in main",
                 id="nibbles-cut"),
    # An escape to li's pattern; its nibble byte fits, its ``h`` does not.
    pytest.param((_LI_H, _HLT), "ff0000" "10e8", TruncatedStreamError,
                 "image ends before 'h' operand",
                 "image ends before the operands of a slot in main",
                 id="wide-cut"),
    pytest.param((Instr("jmp", ("L0",)),), "00" "0300", CorruptStreamError,
                 "label offset 3 beyond code of 3 bytes in 'main'",
                 "branch to mid-slot offset 3 in main", id="label-past-code"),
    # The symbol table holds one name, main; index 1 is past it.
    pytest.param((Instr("la", (1, "main")), _HLT), "0010" "0100" "00",
                 CorruptStreamError, "symbol index 1 of 1", None,
                 id="symbol-past-table"),
]


@pytest.mark.parametrize("insns, code, error, message, jit_message",
                         _FORGED_SLOTS)
def test_every_slot_reader_check_raises_typed(insns, code, error, message,
                                              jit_message):
    """Each check of the slot reader, on one forged slot, through every
    consumer that reads it: decompression, in-place interpretation with
    and without the decode cache, and the JIT, whose template table
    already holds the forged image's entries."""
    import re

    from repro.brisc import run_image
    from repro.jit import jit_compile

    blob = single_function_image(*insns)
    decompress(blob)  # the image is sound before the forgery
    jit_compile(blob)
    forged = with_code(blob, bytes.fromhex(code))
    with pytest.raises(error, match=re.escape(message)):
        decompress(forged)
    for cached in (True, False):
        with pytest.raises(error, match=re.escape(message)):
            run_image(forged, cache_decoded=cached)
    if jit_message is not None:
        with pytest.raises(error, match=re.escape(jit_message)):
            jit_compile(forged)


class TestContainerIntegrity:
    """BRI2 framing: version byte, whole-payload CRC, legacy decode."""

    def test_new_images_are_bri2_with_crc(self):
        import zlib

        blob = compress(compile_sample("wc")).image.blob
        assert blob[:4] == b"BRI2"
        stored = int.from_bytes(blob[4:8], "little")
        assert zlib.crc32(blob[8:]) == stored

    def test_legacy_bri1_images_still_decode(self):
        blob = compress(compile_sample("wc")).image.blob
        legacy = b"BRI1" + blob[8:]  # strip the CRC, downgrade the magic
        assert decompress(legacy) == decompress(blob)

    def test_unknown_version_rejected(self):
        from repro.errors import UnsupportedFormatError

        blob = compress(compile_sample("wc")).image.blob
        with pytest.raises(UnsupportedFormatError):
            parse_image(b"BRI9" + blob[4:])

    def test_crc_catches_payload_corruption(self):
        from repro.errors import CorruptStreamError

        blob = bytearray(compress(compile_sample("wc")).image.blob)
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(CorruptStreamError):
            parse_image(bytes(blob))

    def test_truncation_is_typed(self):
        from repro.errors import DecodeError

        blob = compress(compile_sample("wc")).image.blob
        for cut in (2, 6, len(blob) // 2):
            with pytest.raises(DecodeError):
                parse_image(blob[:cut])

    def test_legacy_image_still_runs(self):
        from repro.brisc import run_image

        cp = compress(compile_sample("wc"))
        legacy = b"BRI1" + cp.image.blob[8:]
        assert run_image(legacy, stdin="two words\n").output == \
            run_image(cp.image.blob, stdin="two words\n").output
