"""VM binary encoding round-trip tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.vm.encode import (
    decode_function, decode_instr, encode_function, encode_instr,
    encoded_opcodes,
)
from repro.vm.instr import Instr, VMFunction
from repro.vm.isa import MNEMONIC, Operand, SPEC


def test_opcode_space_fits_one_byte():
    assert encoded_opcodes() <= 256


def test_opcode_count_same_magnitude_as_paper():
    """The paper's base instruction set has 224 patterns; ours is the same
    order of magnitude (mnemonics expanded by immediate width)."""
    assert 120 <= encoded_opcodes() <= 256


class TestInstrRoundtrip:
    def test_simple_alu(self):
        i = Instr("add.i", (1, 2, 3))
        blob = encode_instr(i)
        back, pos = decode_instr(blob, 0)
        assert back == i and pos == len(blob)

    def test_imm_width_selection(self):
        small = encode_instr(Instr("li", (0, 5)))
        medium = encode_instr(Instr("li", (0, 5000)))
        large = encode_instr(Instr("li", (0, 500000)))
        assert len(small) < len(medium) < len(large)

    def test_negative_immediates(self):
        for value in (-1, -128, -129, -40000, -2**31):
            i = Instr("addi.i", (1, 2, value))
            back, _ = decode_instr(encode_instr(i), 0)
            assert back.operands[2] == value

    def test_double_immediate(self):
        i = Instr("li.d", (3, 2.5))
        back, _ = decode_instr(encode_instr(i), 0)
        assert back.operands == (3, 2.5)

    def test_no_operand_instr(self):
        i = Instr("hlt", ())
        assert decode_instr(encode_instr(i), 0)[0] == i

    def test_mem_instruction(self):
        i = Instr("ld.iw", (0, 16, 14))
        back, _ = decode_instr(encode_instr(i), 0)
        assert back == i

    def test_bad_opcode_rejected(self):
        with pytest.raises(ValueError):
            decode_instr(b"\xff\x00\x00", 0)


def _random_instr(draw):
    name = draw(st.sampled_from(MNEMONIC))
    spec = SPEC[name]
    operands = []
    for kind in spec.signature:
        if kind in (Operand.REG, Operand.FREG):
            operands.append(draw(st.integers(0, 15 if kind is Operand.REG else 7)))
        elif kind is Operand.IMM:
            operands.append(draw(st.integers(-2**31, 2**31 - 1)))
        elif kind is Operand.DIMM:
            operands.append(draw(st.floats(allow_nan=False, allow_infinity=False,
                                           width=32)))
        elif kind is Operand.LABEL:
            operands.append("L0")
        else:
            operands.append("sym0")
    return Instr(name, tuple(operands))


@st.composite
def instrs(draw):
    return _random_instr(draw)


@given(st.lists(instrs(), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_function_roundtrip_property(instr_list):
    fn = VMFunction("t")
    fn.define_label("L0")
    for i in instr_list:
        fn.emit(i)
    blob = encode_function(fn, {"sym0": 3})
    back = decode_function(blob, "t")
    assert len(back.code) == len(fn.code)
    for a, b in zip(fn.code, back.code):
        assert a.name == b.name
        # Register and immediate operands must match exactly; labels and
        # symbols come back as resolved placeholders.
        for kind, av, bv in zip(a.spec.signature, a.operands, b.operands):
            if kind in (Operand.REG, Operand.FREG, Operand.IMM):
                assert av == bv
            elif kind is Operand.DIMM:
                assert av == pytest.approx(bv)


def test_function_label_offsets_resolved():
    fn = VMFunction("loop")
    fn.define_label("top")
    fn.emit(Instr("addi.i", (0, 0, 1)))
    fn.emit(Instr("blti.i", (0, 10, "top")))
    blob = encode_function(fn)
    back = decode_function(blob, "loop")
    # The branch target decodes to offset 0, the first instruction.
    target = back.code[1].operands[2]
    assert target == "@0"
    assert back.labels["@0"] == 0


def test_encode_deterministic():
    fn = VMFunction("d")
    fn.emit(Instr("li", (2, 77)))
    fn.emit(Instr("mov.i", (0, 2)))
    assert encode_function(fn) == encode_function(fn)


# ---------------------------------------------------------------------------
# The size table: sizes without encoding, and one encode per instruction
# ---------------------------------------------------------------------------

#: One operand value per kind; integer immediates per width code.
_OPERAND = {Operand.REG: 5, Operand.FREG: 3, Operand.DIMM: -0.5,
            Operand.LABEL: "L", Operand.SYM: "f"}
_IMM_BY_WIDTH = ((0, -128, 127), (128, -32768, 32767),
                 (32768, -2**31, 2**31 - 1))


def test_instr_size_matches_encoding_for_every_mnemonic_and_width():
    from repro.vm.encode import instr_size

    for name in MNEMONIC:
        signature = SPEC[name].signature
        widths = _IMM_BY_WIDTH if Operand.IMM in signature else ((None,),)
        for values in widths:
            for imm in values:
                instr = Instr(name, tuple(
                    imm if kind is Operand.IMM else _OPERAND[kind]
                    for kind in signature))
                assert instr_size(instr) == len(encode_instr(instr)), instr


def _sample_program():
    from repro.corpus import suite_source
    from repro.pipeline import Toolchain

    return Toolchain().compile(suite_source("wc"), name="wc",
                               stages=("codegen",)).program


def test_program_size_encodes_nothing(monkeypatch):
    from repro.vm import encode, program_size

    program = _sample_program()
    calls = []
    real = encode.encode_instr
    monkeypatch.setattr(encode, "encode_instr",
                        lambda *args: calls.append(1) or real(*args))
    size = program_size(program)
    assert calls == []
    monkeypatch.undo()
    assert size == sum(len(encode_function(fn)) for fn in program.functions)


def test_encode_function_encodes_each_instruction_once(monkeypatch):
    from repro.vm import encode

    program = _sample_program()
    calls = []
    real = encode.encode_instr
    monkeypatch.setattr(encode, "encode_instr",
                        lambda *args: calls.append(1) or real(*args))
    for fn in program.functions:
        del calls[:]
        encode_function(fn)
        assert len(calls) == len(fn.code)
