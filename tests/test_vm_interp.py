"""VM interpreter semantics tests (assembly-level, no C front end)."""

import pytest

from repro.ir.tree import GlobalData, PtrInit, ScalarInit
from repro.vm.asm import parse_function
from repro.vm.instr import VMProgram
from repro.vm.interp import VMError, run_program


def run_asm(body, globals_=None, entry="main", args=(), **kwargs):
    """Assemble a single function and run it."""
    fn = parse_function(body, entry)
    program = VMProgram("t", functions=[fn], globals=globals_ or [],
                        entry=entry)
    return run_program(program, args=args, **kwargs)


def run_value(body, **kwargs):
    return run_asm(body + "\nhlt", **kwargs).exit_code


class TestArithmetic:
    def test_add(self):
        assert run_value("li n0,2\nli n1,40\nadd.i n0,n0,n1") == 42

    def test_sub_wraps_32bit(self):
        assert run_value("li n0,-2147483648\nli n1,1\nsub.i n0,n0,n1") == \
            2**31 - 1

    def test_mul_wraps(self):
        assert run_value("li n0,65536\nmul.i n0,n0,n0") == 0

    def test_signed_division_truncates(self):
        assert run_value("li n0,-7\nli n1,2\ndiv.i n0,n0,n1") == -3

    def test_rem_sign_follows_dividend(self):
        assert run_value("li n0,-7\nli n1,2\nrem.i n0,n0,n1") == -1

    def test_unsigned_division(self):
        assert run_value("li n0,-1\nli n1,2\ndivu.i n0,n0,n1") == 2**31 - 1

    def test_division_by_zero_faults(self):
        with pytest.raises(VMError):
            run_value("li n0,1\nli n1,0\ndiv.i n0,n0,n1")

    def test_shifts(self):
        assert run_value("li n0,1\nli n1,5\nshl.i n0,n0,n1") == 32
        assert run_value("li n0,-8\nli n1,1\nsra.i n0,n0,n1") == -4
        assert run_value("li n0,-8\nli n1,1\nshr.i n0,n0,n1") == \
            (2**32 - 8) >> 1

    def test_bitwise(self):
        assert run_value("li n0,12\nli n1,10\nand.i n0,n0,n1") == 8
        assert run_value("li n0,12\nli n1,10\nor.i n0,n0,n1") == 14
        assert run_value("li n0,12\nli n1,10\nxor.i n0,n0,n1") == 6
        assert run_value("li n0,0\nnot.i n0,n0") == -1

    def test_immediate_forms(self):
        assert run_value("li n0,40\naddi.i n0,n0,2") == 42
        assert run_value("li n0,7\nmuli.i n0,n0,6") == 42
        assert run_value("li n0,43\nandi.i n0,n0,-2") == 42

    def test_extensions(self):
        assert run_value("li n0,0x80\nsext.b n0,n0") == -128
        assert run_value("li n0,0x80\nzext.b n0,n0") == 128
        assert run_value("li n0,0x8000\nsext.h n0,n0") == -32768
        assert run_value("li n0,0x18000\nzext.h n0,n0") == 0x8000


class TestDoubles:
    def test_double_arithmetic(self):
        out = run_asm("""
            li.d f0,1.5
            li.d f1,2.5
            add.d f2,f0,f1
            mul.d f2,f2,f1
            st.d f2,-8(sp)
            sys 7
            hlt
        """).output
        assert out == "10"

    def test_conversions(self):
        assert run_value("li n1,7\ncvt.id f0,n1\ncvt.di n0,f0") == 7

    def test_cvt_truncates_toward_zero(self):
        out = run_asm("""
            li.d f0,3.99
            cvt.di n0,f0
            hlt
        """).exit_code
        assert out == 3

    def test_float_division_by_zero_faults(self):
        with pytest.raises(VMError):
            run_value("li.d f0,1.0\nli.d f1,0.0\ndiv.d f0,f0,f1")


class TestMemory:
    def test_store_load_word(self):
        assert run_value("""
            li n1,42
            st.iw n1,-8(sp)
            ld.iw n0,-8(sp)
        """) == 42

    def test_byte_store_truncates(self):
        assert run_value("""
            li n1,0x1ff
            st.ib n1,-8(sp)
            ld.iub n0,-8(sp)
        """) == 0xFF

    def test_signed_byte_load(self):
        assert run_value("""
            li n1,-1
            st.ib n1,-8(sp)
            ld.ib n0,-8(sp)
        """) == -1

    def test_half_word(self):
        assert run_value("""
            li n1,0x12345
            st.ih n1,-8(sp)
            ld.iuh n0,-8(sp)
        """) == 0x2345

    def test_indirect_forms(self):
        assert run_value("""
            li n1,42
            mov.i n2,sp
            addi.i n2,n2,-8
            stx.iw n1,n2
            ldx.iw n0,n2
        """) == 42

    def test_out_of_range_access_faults(self):
        with pytest.raises(VMError):
            run_value("li n1,0\nli n2,1\nstx.iw n2,n1")

    def test_blkcpy(self):
        g = GlobalData("src", 8, 4, items=[ScalarInit(0, 4, 0x11223344),
                                           ScalarInit(4, 4, 0x55667788)])
        d = GlobalData("dst", 8, 4)
        assert run_asm("""
            la n1,dst
            la n2,src
            blkcpy n1,n2,8
            la n1,dst
            ld.iw n0,4(n1)
            hlt
        """, globals_=[g, d]).exit_code == 0x55667788

    def test_globals_initialized(self):
        g = GlobalData("x", 4, 4, items=[ScalarInit(0, 4, 99)])
        assert run_asm("la n1,x\nld.iw n0,0(n1)\nhlt",
                       globals_=[g]).exit_code == 99

    def test_pointer_initializer(self):
        a = GlobalData("a", 4, 4, items=[ScalarInit(0, 4, 7)])
        p = GlobalData("p", 4, 4, items=[PtrInit(0, "a")])
        assert run_asm("""
            la n1,p
            ld.iw n1,0(n1)
            ld.iw n0,0(n1)
            hlt
        """, globals_=[a, p]).exit_code == 7

    def test_globals_past_the_stack_reserve_fault_at_load(self):
        """``big`` leaves ``y`` no room below the stack: loading faults on
        the VM and on BRISC in place, before any initializer can write
        past memory and grow it."""
        import repro
        from repro.brisc import BriscInterpreter, compress, run_image
        from repro.vm.interp import Interpreter

        program = repro.compile_c(
            "int big[1000000]; int y = 5; int main(void) { return y; }")
        blob = compress(program).image.blob
        loads = [(Interpreter, (program,), {})] + [
            (BriscInterpreter, (blob,), {"cache_decoded": cached})
            for cached in (True, False)]
        for cls, args, kwargs in loads:
            interp = cls.__new__(cls)
            with pytest.raises(VMError, match="globals end at 0x3d1904"):
                interp.__init__(*args, memory_size=1 << 20, **kwargs)
            assert len(interp.memory) == 1 << 20
        with pytest.raises(VMError, match="globals end"):
            run_program(program)
        for cached in (True, False):
            with pytest.raises(VMError, match="globals end"):
                run_image(blob, cache_decoded=cached)


class TestControlFlow:
    def test_branch_taken(self):
        assert run_value("""
            li n0,1
            li n1,1
            beq.i n0,n1,$yes
            li n0,0
            hlt
            $yes:
            li n0,42
        """) == 42

    def test_branch_immediate(self):
        assert run_value("""
            li n0,5
            bgti.i n0,3,$big
            li n0,0
            hlt
            $big:
            li n0,1
        """) == 1

    def test_unsigned_branch(self):
        # -1 is huge unsigned, so bltu is false.
        assert run_value("""
            li n0,-1
            li n1,1
            bltu.i n0,n1,$less
            li n0,42
            hlt
            $less:
            li n0,0
        """) == 42

    def test_loop_sums(self):
        assert run_value("""
            li n0,0
            li n1,0
            $loop:
            add.i n0,n0,n1
            addi.i n1,n1,1
            blti.i n1,11,$loop
        """) == 55

    def test_call_and_return(self):
        callee = parse_function("""
            ld.iw n0,-4(sp)
            muli.i n0,n0,2
            rjr ra
        """, "double_it")
        main = parse_function("""
            li n1,21
            st.iw n1,-4(sp)
            call double_it
            hlt
        """, "main")
        program = VMProgram("t", functions=[main, callee])
        assert run_program(program).exit_code == 42

    def test_indirect_call(self):
        callee = parse_function("li n0,7\nrjr ra", "seven")
        main = parse_function("""
            la n1,seven
            calli n1
            hlt
        """, "main")
        program = VMProgram("t", functions=[main, callee])
        assert run_program(program).exit_code == 7

    def test_indirect_call_to_data_faults(self):
        with pytest.raises(VMError):
            run_value("li n1,4096\ncalli n1")

    def test_return_to_garbage_faults(self):
        with pytest.raises(VMError):
            run_value("li n1,123\nrjr n1")

    def test_fall_off_end_faults(self):
        with pytest.raises(VMError):
            run_asm("li n0,1")

    def test_step_budget_enforced(self):
        with pytest.raises(VMError):
            run_asm("$a:\njmp $a", max_steps=1000)


class TestSyscalls:
    def test_putchar(self):
        out = run_asm("""
            li n1,65
            st.iw n1,-4(sp)
            sys 1
            hlt
        """).output
        assert out == "A"

    def test_print_int_negative(self):
        out = run_asm("""
            li n1,-42
            st.iw n1,-4(sp)
            sys 5
            hlt
        """).output
        assert out == "-42"

    def test_getchar_stdin(self):
        res = run_asm("sys 2\nhlt", stdin="x")
        assert res.exit_code == ord("x")

    def test_getchar_eof(self):
        assert run_asm("sys 2\nhlt").exit_code == -1

    def test_exit_code(self):
        res = run_asm("""
            li n1,3
            st.iw n1,-4(sp)
            sys 0
        """)
        assert res.exit_code == 3

    def test_malloc_returns_distinct_blocks(self):
        res = run_asm("""
            li n1,16
            st.iw n1,-4(sp)
            sys 3
            mov.i n2,n0
            li n1,16
            st.iw n1,-4(sp)
            sys 3
            sub.i n0,n0,n2
            hlt
        """)
        assert res.exit_code >= 16

    def test_abort_faults(self):
        with pytest.raises(VMError):
            run_asm("sys 9\nhlt")

    def test_clock_monotonic(self):
        res = run_asm("""
            sys 8
            mov.i n2,n0
            sys 8
            sub.i n0,n0,n2
            hlt
        """)
        assert res.exit_code > 0

    def test_unknown_syscall_faults(self):
        with pytest.raises(VMError):
            run_asm("sys 99\nhlt")


class TestAccounting:
    def test_steps_counted(self):
        res = run_asm("li n0,1\nli n0,2\nhlt")
        assert res.steps == 3

    def test_entry_args_passed(self):
        assert run_asm("ld.iw n0,-8(sp)\nhlt", args=(5, 6)).exit_code == 5
        assert run_asm("ld.iw n0,-4(sp)\nhlt", args=(5, 6)).exit_code == 6
