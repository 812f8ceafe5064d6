"""BRISC pattern machinery tests."""

import struct

import pytest

from repro.brisc.pattern import (
    Burned, DictPattern, deserialize_pattern,
    imm_class, pattern_of_instr, serialize_pattern,
)
from repro.compress.bitio import uvarint
from repro.errors import CorruptStreamError, TruncatedStreamError
from repro.vm.instr import Instr
from repro.vm.isa import MNEMONIC, REG_SP


def base(instr):
    return DictPattern((pattern_of_instr(instr),))


LD = Instr("ld.iw", (0, 4, REG_SP))       # the paper's favourite instruction
MOV = Instr("mov.i", (2, 0))
ENTER = Instr("enter", (REG_SP, REG_SP, 24))


class TestImmClasses:
    def test_nibble_x4(self):
        """The paper's -x4 suffix: multiples of four fit a scaled nibble."""
        assert imm_class(0) == "n4"
        assert imm_class(4) == "n4"
        assert imm_class(60) == "n4"

    def test_byte(self):
        assert imm_class(1) == "b"
        assert imm_class(-4) == "b"
        assert imm_class(127) == "b"

    def test_half_and_word(self):
        assert imm_class(1000) == "h"
        assert imm_class(100000) == "w"


class TestMatching:
    def test_base_pattern_matches_same_shape(self):
        p = pattern_of_instr(LD)
        assert p.matches(Instr("ld.iw", (3, 8, REG_SP)))

    def test_base_pattern_rejects_wider_imm(self):
        p = pattern_of_instr(LD)  # offset 4 -> n4 class
        assert not p.matches(Instr("ld.iw", (3, 1000, REG_SP)))

    def test_different_mnemonic_rejected(self):
        assert not pattern_of_instr(LD).matches(MOV)

    def test_burned_field_must_equal(self):
        p = pattern_of_instr(LD).specializations(LD)[0]  # burn rd=n0
        assert p.matches(Instr("ld.iw", (0, 8, REG_SP)))
        assert not p.matches(Instr("ld.iw", (1, 8, REG_SP)))


class TestSpecialization:
    def test_one_field_at_a_time(self):
        """ld.iw n0,4(sp) patternizes into per-field specializations (the
        paper enumerates exactly these candidates)."""
        specs = pattern_of_instr(LD).specializations(LD)
        assert len(specs) == 3  # rd, offset, base — one each
        burned_counts = [
            sum(isinstance(f, Burned) for f in s.fields) for s in specs
        ]
        assert burned_counts == [1, 1, 1]

    def test_specializing_all_fields(self):
        p = pattern_of_instr(LD)
        for _ in range(3):
            p = p.specializations(LD)[0]
        assert all(isinstance(f, Burned) for f in p.fields)
        assert p.matches(LD)

    def test_fully_burned_pattern_has_no_operand_bytes(self):
        p = pattern_of_instr(LD)
        for _ in range(3):
            p = p.specializations(LD)[0]
        assert DictPattern((p,)).operand_bytes() == 0


class TestOperandLayout:
    def test_all_wildcard_ld_packs_nibbles(self):
        # rd (nib) + n4 offset (nib) + rb (nib) -> 2 bytes.
        assert base(LD).operand_bytes() == 2

    def test_burning_one_nibble_saves_via_pairing(self):
        p = pattern_of_instr(LD).specializations(LD)[0]
        assert DictPattern((p,)).operand_bytes() == 1

    def test_mov_is_one_byte(self):
        assert base(MOV).operand_bytes() == 1

    def test_combined_pattern_packs_across_parts(self):
        combined = DictPattern(
            (pattern_of_instr(MOV), pattern_of_instr(MOV))
        )
        # 4 nibbles across both parts -> 2 bytes.
        assert combined.operand_bytes() == 2

    def test_encoded_size_adds_opcode_byte(self):
        assert base(MOV).encoded_size() == base(MOV).operand_bytes() + 1

    def test_wide_imm_class_sizes(self):
        li_w = Instr("li", (0, 100000))
        assert base(li_w).operand_bytes() == 1 + 4  # reg nibble pads + imm32


class TestControlPlacement:
    def test_branch_in_final_part_ok(self):
        p = DictPattern((
            pattern_of_instr(MOV),
            pattern_of_instr(Instr("blti.i", (0, 10, "L"))),
        ))
        assert p.is_control_ok()

    def test_branch_in_first_part_rejected(self):
        p = DictPattern((
            pattern_of_instr(Instr("blti.i", (0, 10, "L"))),
            pattern_of_instr(MOV),
        ))
        assert not p.is_control_ok()

    def test_call_in_middle_rejected(self):
        p = DictPattern((
            pattern_of_instr(Instr("call", ("f",))),
            pattern_of_instr(MOV),
        ))
        assert not p.is_control_ok()


class TestSerialization:
    def roundtrip(self, pattern):
        blob = serialize_pattern(pattern)
        back, pos = deserialize_pattern(blob, 0)
        assert pos == len(blob)
        assert back == pattern
        assert pattern.dictionary_size() == len(blob)
        return blob

    def test_base_pattern(self):
        self.roundtrip(base(LD))

    def test_specialized_pattern(self):
        p = pattern_of_instr(ENTER)
        p = p.specializations(ENTER)[0]
        self.roundtrip(DictPattern((p,)))

    def test_combined_pattern(self):
        self.roundtrip(DictPattern(
            (pattern_of_instr(ENTER), pattern_of_instr(LD))))

    def test_negative_burned_imm(self):
        i = Instr("st.iw", (0, -4, REG_SP))
        p = pattern_of_instr(i)
        for _ in range(3):
            p = p.specializations(i)[0]
        self.roundtrip(DictPattern((p,)))

    def test_burned_symbol(self):
        i = Instr("call", ("pepper",))
        p = pattern_of_instr(i).specializations(i)[0]
        self.roundtrip(DictPattern((p,)))

    def test_long_burned_symbol(self):
        """A >=128-byte identifier needs a two-byte uvarint length."""
        i = Instr("call", ("x" * 130,))
        p = pattern_of_instr(i).specializations(i)[0]
        blob = self.roundtrip(DictPattern((p,)))
        assert len(blob) == 1 + 1 + 1 + 2 + 130

    def test_double_immediate(self):
        i = Instr("li.d", (0, 2.5))
        p = pattern_of_instr(i).specializations(i)[-1]
        self.roundtrip(DictPattern((p,)))

    def test_dictionary_size_small(self):
        """The paper estimates ~2 bytes per specialized entry; ours must
        stay the same order of magnitude."""
        p = pattern_of_instr(ENTER).specializations(ENTER)[0]
        assert DictPattern((p,)).dictionary_size() <= 10


def entry(name, *fields):
    """A one-part dictionary entry with hand-written field bytes."""
    return uvarint(1) + uvarint(MNEMONIC.index(name)) + b"".join(fields)


WILD_R, WILD_F, WILD_N4 = b"\x80", b"\x81", b"\x82"


class TestRejectedEntries:
    """Forms no encoder writes: each must be a typed decode error, not an
    entry whose operands later index past a register file or a lookup
    table."""

    def test_well_formed_entry_parses(self):
        blob = entry("li", WILD_R, WILD_N4)
        pattern, pos = deserialize_pattern(blob, 0)
        assert pos == len(blob)
        assert pattern == base(Instr("li", (0, 4)))

    def test_wildcard_class_must_fit_operand_kind(self):
        # A register class on li's immediate field.
        with pytest.raises(CorruptStreamError,
                           match="wildcard class 'r' cannot carry a imm "
                                 "operand of li"):
            deserialize_pattern(entry("li", WILD_R, WILD_R), 0)

    def test_unknown_wildcard_class_rejected(self):
        with pytest.raises(CorruptStreamError,
                           match="unknown wildcard class id 9"):
            deserialize_pattern(entry("li", WILD_R, b"\x89"), 0)

    def test_entry_cut_before_a_field_tag(self):
        with pytest.raises(TruncatedStreamError,
                           match="data ends before field tag"):
            deserialize_pattern(entry("li", WILD_R), 0)

    def test_burned_tag_must_fit_operand_kind(self):
        # A burned double in li's register field.
        forged = entry("li", b"\x02" + struct.pack("<d", 1.5), WILD_N4)
        with pytest.raises(CorruptStreamError,
                           match="field tag 0x2 cannot carry a reg operand "
                                 "of li"):
            deserialize_pattern(forged, 0)

    def test_burned_label_rejected(self):
        with pytest.raises(CorruptStreamError,
                           match="field tag 0x3 cannot carry a label "
                                 "operand of jmp"):
            deserialize_pattern(entry("jmp", b"\x03\x02L4"), 0)

    @pytest.mark.parametrize("name, kind, register, wildcard", [
        ("mov.i", "reg", 16, WILD_R), ("mov.d", "freg", 8, WILD_F)],
        ids=["REG", "FREG"])
    def test_burned_register_outside_register_file(self, name, kind,
                                                   register, wildcard):
        inside = entry(name, b"\x00" + bytes([register - 1]), wildcard)
        assert deserialize_pattern(inside, 0)[1] == len(inside)
        forged = entry(name, b"\x00" + bytes([register]), wildcard)
        with pytest.raises(CorruptStreamError,
                           match=f"burned {kind} {register} of {register} "
                                 f"in {name}"):
            deserialize_pattern(forged, 0)

    def test_burned_immediate_wider_than_32_bits(self):
        forged = entry("li", WILD_R, b"\x01" + uvarint(1 << 32))  # 2**31
        with pytest.raises(CorruptStreamError,
                           match="burned immediate 2147483648 wider than 32 "
                                 "bits in li"):
            deserialize_pattern(forged, 0)


class TestPaperNotation:
    def test_str_matches_paper_style(self):
        p = pattern_of_instr(LD).specializations(LD)[0]
        text = str(DictPattern((p,)))
        assert text.startswith("[ld.iw")
        combined = DictPattern((pattern_of_instr(MOV), pattern_of_instr(MOV)))
        assert str(combined).startswith("<[mov.i")
