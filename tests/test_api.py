"""Public API surface tests: determinism, error reporting, conveniences."""

import re

import pytest

import repro
from repro.brisc import compress
from repro.cfront.errors import CompileError, Location
from repro.vm.instr import Instr, VMFunction, VMProgram


class TestCompileC:
    def test_compile_and_run(self):
        program = repro.compile_c("int main(void) { return 41 + 1; }")
        assert repro.run(program).exit_code == 42

    def test_version_string(self):
        assert repro.__version__

    def test_compile_error_carries_location(self):
        with pytest.raises(CompileError) as info:
            repro.compile_c("int main(void) { return x; }", "prog.c")
        assert "prog.c:" in str(info.value)
        assert info.value.location is not None
        assert info.value.location.filename == "prog.c"

    def test_subpackages_reachable(self):
        assert repro.brisc.compress is compress
        assert callable(repro.wire.encode_module)
        assert callable(repro.compress.deflate_compress)


class TestDeterminism:
    SRC = """
    int mix(int a, int b) { return (a ^ b) * 31 + (a >> 3); }
    int main(void) { print_int(mix(1234, 5678)); return 0; }
    """

    def test_codegen_deterministic(self):
        a = repro.compile_c(self.SRC)
        b = repro.compile_c(self.SRC)
        for fa, fb in zip(a.functions, b.functions):
            assert fa.code == fb.code
            assert fa.labels == fb.labels

    def test_brisc_image_deterministic(self):
        a = compress(repro.compile_c(self.SRC))
        b = compress(repro.compile_c(self.SRC))
        assert a.image.blob == b.image.blob

    def test_wire_deterministic(self):
        from repro.cfront import compile_to_ast
        from repro.ir import lower_unit
        from repro.wire import encode_module

        m1 = lower_unit(compile_to_ast(self.SRC, "m"), "m")
        m2 = lower_unit(compile_to_ast(self.SRC, "m"), "m")
        assert encode_module(m1) == encode_module(m2)


class TestErrors:
    def test_location_str(self):
        loc = Location("f.c", 3, 9)
        assert str(loc) == "f.c:3:9"

    def test_error_without_location(self):
        err = CompileError("boom")
        assert str(err) == "boom"

    def test_error_classes_keep_their_import_paths(self):
        from repro import cfront, codegen, errors, vm
        from repro.codegen import riscgen
        from repro.vm import interp

        assert CompileError is cfront.CompileError is errors.CompileError
        assert codegen.CodegenError is riscgen.CodegenError \
            is errors.CodegenError
        assert issubclass(errors.CodegenError, errors.CompileError)
        assert vm.VMError is interp.VMError is errors.VMError


class TestVMProgramAPI:
    def test_function_lookup(self):
        fn = VMFunction("f")
        program = VMProgram("p", functions=[fn])
        assert program.function("f") is fn
        assert program.function_index("f") == 0
        with pytest.raises(KeyError):
            program.function("g")
        with pytest.raises(KeyError):
            program.function_index("g")

    def test_instr_validation(self):
        with pytest.raises(ValueError, match="mov.i takes 2 operands, got 1"):
            Instr("mov.i", (1,))  # wrong arity
        with pytest.raises(ValueError):
            Instr("mov.i", (1, "x"))  # wrong operand type
        with pytest.raises(KeyError, match="bogus"):
            Instr("bogus", ())
        # One accepted and one rejected value per operand kind.
        for name, good, bad, message in [
            ("mov.i", (1, 2), (1, "2"), "mov.i: reg operand must be int"),
            ("mov.d", (1, 2), (1, 2.0), "mov.d: freg operand must be int"),
            ("li", (1, 1000), (1, 1e3), "li: imm operand must be int"),
            ("li.d", (1, 2.5), (1, "2.5"),
             "li.d: dimm operand must be a number"),
            ("jmp", ("L1",), (1,), "jmp: label operand must be str"),
            ("call", ("f",), (0,), "call: sym operand must be str"),
        ]:
            assert Instr(name, good).operands == good
            with pytest.raises(ValueError, match=re.escape(message)):
                Instr(name, bad)

    def test_function_label_api(self):
        fn = VMFunction("f")
        fn.define_label("a")
        fn.emit(Instr("hlt", ()))
        assert fn.labels == {"a": 0}
        assert len(fn) == 1
        with pytest.raises(ValueError):
            fn.define_label("a")
