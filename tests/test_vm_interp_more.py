"""Additional interpreter semantics: double branches, conversions,
block copies, frame macros, and accounting corners."""

import pytest

from repro.vm.asm import parse_function
from repro.vm.instr import VMProgram
from repro.vm.interp import Interpreter, VMError, run_program


def run_asm(body, entry="main", **kwargs):
    fn = parse_function(body, entry)
    return run_program(VMProgram("t", functions=[fn]), **kwargs)


def run_value(body, **kwargs):
    return run_asm(body + "\nhlt", **kwargs).exit_code


class TestDoubleBranches:
    def _cmp(self, op, a, b):
        return run_value(f"""
            li.d f0,{a}
            li.d f1,{b}
            {op} f0,f1,$yes
            li n0,0
            hlt
            $yes:
            li n0,1
        """)

    def test_beq(self):
        assert self._cmp("beq.d", 1.5, 1.5) == 1
        assert self._cmp("beq.d", 1.5, 1.6) == 0

    def test_bne(self):
        assert self._cmp("bne.d", 1.5, 1.6) == 1

    def test_blt_bgt(self):
        assert self._cmp("blt.d", 1.0, 2.0) == 1
        assert self._cmp("bgt.d", 1.0, 2.0) == 0

    def test_ble_bge(self):
        assert self._cmp("ble.d", 2.0, 2.0) == 1
        assert self._cmp("bge.d", 2.0, 2.0) == 1


class TestConversions:
    def test_negative_double_to_int_truncates_toward_zero(self):
        assert run_value("li.d f0,-3.99\ncvt.di n0,f0") == -3

    def test_unsigned_conversion_large(self):
        # 3e9 doesn't fit an int32 but fits a uint32.
        assert run_value("""
            li.d f0,3000000000.0
            cvt.du n1,f0
            li n2,-1294967296
            sub.i n0,n1,n2
        """) == 0

    def test_int_to_double_exact(self):
        assert run_value("""
            li n1,123456789
            cvt.id f0,n1
            cvt.di n0,f0
        """) == 123456789

    def test_unsigned_to_double(self):
        assert run_value("""
            li n1,-1
            cvt.ud f0,n1
            li.d f1,4294967295.0
            beq.d f0,f1,$ok
            li n0,0
            hlt
            $ok:
            li n0,1
        """) == 1


class TestFrameMacros:
    def test_enter_exit_restore_sp(self):
        assert run_value("""
            mov.i n1,sp
            enter sp,sp,64
            exit sp,sp,64
            sub.i n0,n1,sp
        """) == 0

    def test_spill_reload_roundtrip(self):
        assert run_value("""
            enter sp,sp,32
            li n1,777
            spill.i n1,8(sp)
            li n1,0
            reload.i n0,8(sp)
            exit sp,sp,32
        """) == 777


class TestBlockCopy:
    def test_copy_within_stack(self):
        assert run_value("""
            li n1,305419896
            st.iw n1,-32(sp)
            mov.i n2,sp
            addi.i n2,n2,-32
            mov.i n3,sp
            addi.i n3,n3,-16
            blkcpy n3,n2,4
            ld.iw n0,-16(sp)
        """) == 305419896

    def test_zero_length_copy(self):
        assert run_value("""
            mov.i n2,sp
            addi.i n2,n2,-8
            blkcpy n2,n2,0
            li n0,5
        """) == 5

    def test_copy_out_of_range_faults(self):
        with pytest.raises(VMError):
            run_value("li n1,16\nli n2,0\nblkcpy n1,n2,8")

    @pytest.mark.parametrize("length", [-1, -0x8000_0000])
    def test_negative_length_faults(self, length):
        with pytest.raises(VMError, match="out of range"):
            run_value(f"""
                mov.i n2,sp
                addi.i n2,n2,-8
                blkcpy n2,n2,{length}
            """)


class TestAccounting:
    def test_interpreter_reusable_state_isolated(self):
        fn = parse_function("li n0,9\nhlt", "main")
        program = VMProgram("t", functions=[fn])
        a = Interpreter(program)
        b = Interpreter(program)
        assert a.run().exit_code == 9
        assert b.steps == 0  # untouched by a's run

    def test_output_accumulates_in_order(self):
        out = run_asm("""
            li n1,72
            st.iw n1,-4(sp)
            sys 1
            li n1,105
            st.iw n1,-4(sp)
            sys 1
            hlt
        """).output
        assert out == "Hi"

    def test_memory_size_configurable(self):
        fn = parse_function("li n0,1\nhlt", "main")
        program = VMProgram("t", functions=[fn])
        interp = Interpreter(program, memory_size=1 << 16)
        assert interp.run().exit_code == 1

    def test_print_double_formats_compactly(self):
        out = run_asm("""
            li.d f0,0.5
            st.d f0,-8(sp)
            sys 7
            hlt
        """).output
        assert out == "0.5"
