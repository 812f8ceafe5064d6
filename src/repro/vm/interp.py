"""The VM interpreter: loads a :class:`VMProgram` and executes it.

Memory model: a flat little-endian byte array.  Globals are laid out from
``GLOBAL_BASE`` up, the heap (a bump allocator behind ``malloc``) follows,
and the stack grows down from the top.  Function and return addresses live
in distinguishable high ranges so function pointers and ``ra`` values can
be stored to memory and reloaded like any other 32-bit word.

The interpreter counts executed instructions; ``clock`` (syscall 8) returns
that count, which gives corpus programs a deterministic timing source.
Each mnemonic's semantics is one handler in :data:`SEMANTICS`, the table
the plain VM and BRISC in place both execute through.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import VMError
from ..ir.tree import PtrInit, ScalarInit
from .instr import VMFunction, VMProgram
from .isa import NUM_FREGS, NUM_IREGS, Operand, REG_RA, REG_SP, SPEC, SYSCALLS

__all__ = ["VMError", "ExecutionResult", "Interpreter", "run_program",
           "GLOBAL_BASE", "FUNC_ADDR_BASE"]

GLOBAL_BASE = 0x1000
#: Bytes at the top of memory kept for the stack: neither the globals nor
#: the heap may reach into them.
STACK_RESERVE = 1 << 16
FUNC_ADDR_BASE = 0x4000_0000
RET_ADDR_BASE = 0x5000_0000
HALT_ADDR = 0x5FFF_FFFF

_U32 = 0xFFFF_FFFF


def _s32(value: int) -> int:
    """Wrap to canonical signed 32-bit."""
    value &= _U32
    return value - 0x1_0000_0000 if value >= 0x8000_0000 else value


def _u32(value: int) -> int:
    return value & _U32


@dataclass
class ExecutionResult:
    """What a program run produced."""

    exit_code: int
    output: str
    steps: int


class Interpreter:
    """Executes a linked VM program."""

    def __init__(
        self,
        program: VMProgram,
        memory_size: int = 1 << 20,
        max_steps: int = 50_000_000,
        stdin: str = "",
    ) -> None:
        self.program = program
        self.memory = bytearray(memory_size)
        self.max_steps = max_steps
        self.iregs = [0] * NUM_IREGS
        self.fregs = [0.0] * NUM_FREGS
        self.steps = 0
        self.output: List[str] = []
        self._stdin = stdin
        self._stdin_pos = 0
        self.exit_code: Optional[int] = None
        self._func_index = {fn.name: i for i, fn in enumerate(program.functions)}
        self.symbols: Dict[str, int] = {}
        self._load_globals()
        self._resolved = [self._resolve_function(fn) for fn in program.functions]

    # -- loading -----------------------------------------------------------

    def _load_globals(self) -> None:
        address = GLOBAL_BASE
        for g in self.program.globals:
            address = (address + g.align - 1) // g.align * g.align
            self.symbols[g.name] = address
            address += max(1, g.size)
        limit = len(self.memory) - STACK_RESERVE
        if self.program.globals and address > limit:
            raise VMError(f"globals end at {address:#x}, past {limit:#x}, "
                          f"where the {STACK_RESERVE}-byte stack reserve "
                          f"begins")
        self.heap_base = (address + 7) // 8 * 8
        self.heap_ptr = self.heap_base
        # Function "addresses" for function pointers.
        for i, fn in enumerate(self.program.functions):
            self.symbols[fn.name] = FUNC_ADDR_BASE + i
        # Apply initializers (after all symbols exist, for PtrInit), each
        # through the checked stores, so none can write past memory.
        for g in self.program.globals:
            base = self.symbols[g.name]
            for item in g.items:
                if isinstance(item, ScalarInit):
                    if isinstance(item.value, float) or item.size == 8:
                        self.store_double(base + item.offset, float(item.value))
                    else:
                        self.store(base + item.offset, item.size, int(item.value))
                else:
                    assert isinstance(item, PtrInit)
                    target = self.symbols.get(item.symbol)
                    if target is None:
                        raise VMError(f"undefined symbol {item.symbol!r} in "
                                      f"initializer of {g.name}")
                    self.store(base + item.offset, 4, target)

    def _resolve_function(self, fn: VMFunction):
        """Each instruction's ``(handler, operands)``: its handler from
        :data:`SEMANTICS`, and its labels and symbols resolved to
        numbers."""
        resolved = []
        for instr in fn.code:
            ops: List[object] = []
            for kind, value in zip(instr.spec.signature, instr.operands):
                if kind is Operand.LABEL:
                    assert isinstance(value, str)
                    if value not in fn.labels:
                        raise VMError(f"undefined label {value!r} in {fn.name}")
                    ops.append(fn.labels[value])
                elif kind is Operand.SYM:
                    assert isinstance(value, str)
                    if value in self._func_index:
                        ops.append(("func", self._func_index[value]))
                    elif value in self.symbols:
                        ops.append(("data", self.symbols[value]))
                    else:
                        raise VMError(f"undefined symbol {value!r} in {fn.name}")
                else:
                    ops.append(value)
            resolved.append((SEMANTICS[instr.name], tuple(ops)))
        return resolved

    # -- memory helpers ------------------------------------------------------

    def _check(self, address: int, size: int) -> None:
        if not GLOBAL_BASE <= address <= address + size <= len(self.memory):
            raise VMError(f"memory access out of range: {address:#x}+{size}")

    def load(self, address: int, size: int, signed: bool) -> int:
        self._check(address, size)
        return int.from_bytes(self.memory[address : address + size], "little",
                              signed=signed)

    def store(self, address: int, size: int, value: int) -> None:
        self._check(address, size)
        raw = value & ((1 << (size * 8)) - 1)
        self.memory[address : address + size] = raw.to_bytes(size, "little")

    def load_double(self, address: int) -> float:
        self._check(address, 8)
        return struct.unpack("<d", self.memory[address : address + 8])[0]

    def store_double(self, address: int, value: float) -> None:
        self._check(address, 8)
        self.memory[address : address + 8] = struct.pack("<d", value)

    def read_cstring(self, address: int) -> str:
        out = []
        while True:
            byte = self.load(address, 1, signed=False)
            if byte == 0:
                return "".join(out)
            out.append(chr(byte))
            address += 1
            if len(out) > 1 << 20:
                raise VMError("unterminated string")

    # -- syscalls ----------------------------------------------------------

    def _syscall(self, number: int) -> None:
        try:
            name, argsig, ret = SYSCALLS[number]
        except KeyError:
            raise VMError(f"unknown syscall {number}") from None
        sp = _u32(self.iregs[REG_SP])
        total = sum(8 if c == "d" else 4 for c in argsig)
        args: List[object] = []
        offset = sp - total
        for c in argsig:
            if c == "d":
                args.append(self.load_double(offset))
                offset += 8
            else:
                signed = c == "i"
                args.append(self.load(offset, 4, signed=signed))
                offset += 4
        result: object = 0
        if name == "exit":
            self.exit_code = int(args[0])  # type: ignore[arg-type]
        elif name == "abort":
            raise VMError("abort() called")
        elif name == "putchar":
            self.output.append(chr(int(args[0]) & 0xFF))  # type: ignore[arg-type]
            result = args[0]
        elif name == "getchar":
            if self._stdin_pos < len(self._stdin):
                result = ord(self._stdin[self._stdin_pos])
                self._stdin_pos += 1
            else:
                result = -1
        elif name == "malloc":
            size = max(1, int(args[0]))  # type: ignore[arg-type]
            aligned = (size + 7) // 8 * 8
            address = self.heap_ptr
            if address + aligned > len(self.memory) - STACK_RESERVE:
                raise VMError("out of heap memory")
            self.heap_ptr += aligned
            result = address
        elif name == "free":
            result = 0
        elif name == "print_int":
            self.output.append(str(_s32(int(args[0]))))  # type: ignore[arg-type]
        elif name == "print_str":
            self.output.append(self.read_cstring(int(args[0])))  # type: ignore[arg-type]
        elif name == "print_double":
            self.output.append(f"{args[0]:.6g}")
        elif name == "clock":
            result = self.steps & 0x7FFF_FFFF
        if ret == "d":
            self.fregs[0] = float(result)  # pragma: no cover - no d syscalls yet
        elif ret != "v":
            self.iregs[0] = _s32(int(result))  # type: ignore[arg-type]

    # -- execution ---------------------------------------------------------

    def run(self, entry: Optional[str] = None, args: Tuple[int, ...] = ()) -> ExecutionResult:
        """Execute from ``entry`` (default the program's entry) to halt."""
        entry = entry or self.program.entry
        if entry not in self._func_index:
            raise VMError(f"no entry function {entry!r}")
        func = self._func_index[entry]
        sp = len(self.memory) - 16
        # Push integer arguments for the entry function, mirroring the
        # caller convention (args stored immediately below sp).
        total = 4 * len(args)
        for i, arg in enumerate(args):
            self.store(sp - total + 4 * i, 4, arg)
        self.iregs[REG_SP] = sp
        self.iregs[REG_RA] = _s32(HALT_ADDR)
        pc = 0
        exit_code = self._loop(func, pc)
        return ExecutionResult(
            exit_code=exit_code,
            output="".join(self.output),
            steps=self.steps,
        )

    def _loop(self, func: int, pc: int) -> int:
        # A step is _exec's, inlined: count it, enforce max_steps, run the
        # handler.  Only a halt sets exit_code, and a halt returns.
        if self.exit_code is not None:
            return self.exit_code
        code = self._resolved[func]
        while True:
            try:
                handler, ops = code[pc]
            except IndexError:
                raise VMError(f"fell off the end of "
                              f"{self.program.functions[func].name}") from None
            pc += 1
            self.steps += 1
            if self.steps > self.max_steps:
                raise VMError(f"exceeded {self.max_steps} steps")
            moved = handler(self, ops, func, pc)
            if moved is not None:
                new_func, pc, halt = moved
                if halt is not None:
                    return halt
                if new_func != func:
                    func = new_func
                    code = self._resolved[func]

    def _exec(self, name: str, ops, func: int, pc: int):
        """Execute one instruction; returns (func, pc, halt_value_or_None).

        ``pc`` is the fall-through continuation (already advanced); control
        transfers overwrite it.  One step exactly as both interpreters'
        loops take it: count the step, enforce ``max_steps``, then run the
        mnemonic's handler from :data:`SEMANTICS`.
        """
        self.steps += 1
        if self.steps > self.max_steps:
            raise VMError(f"exceeded {self.max_steps} steps")
        try:
            handler = SEMANTICS[name]
        except KeyError:
            raise VMError(f"unimplemented instruction {name}") from None
        return handler(self, ops, func, pc) or (func, pc, None)


# -- instruction semantics ---------------------------------------------------
#
# One handler per mnemonic, ``handler(vm, ops, func, pc)``: it returns None
# to fall through to ``pc`` or a ``(func, pc, halt)`` triple.  The table is
# built family by family, as ``repro.vm.isa`` declares the ISA.


def _divisor(b: int) -> int:
    if b == 0:
        raise VMError("division by zero")
    return b


def _divtrunc(a: int, b: int) -> int:
    q = abs(a) // abs(_divisor(b))
    return q if (a >= 0) == (b >= 0) else -q


def _truncate(value: float) -> int:
    """C's double-to-integer conversion; an infinity or a NaN has no
    integer value (C leaves the result undefined)."""
    try:
        return int(value)
    except (OverflowError, ValueError):
        raise VMError(f"cannot convert {value} to an integer") from None


def _ddiv(a: float, b: float) -> float:
    if b == 0.0:
        raise VMError("floating division by zero")
    return a / b


#: Integer operators, each serving ``<op>.i`` and, where the ISA has one,
#: the immediate form ``<op>i.i``; the result wraps to 32 bits.
_INT_OPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": _divtrunc, "rem": lambda a, b: a - _divtrunc(a, b) * b,
    "divu": lambda a, b: _u32(a) // _divisor(_u32(b)),
    "remu": lambda a, b: _u32(a) % _divisor(_u32(b)),
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "shl": lambda a, b: _u32(a) << (b & 31),
    "shr": lambda a, b: _u32(a) >> (b & 31),
    "sra": lambda a, b: a >> (b & 31),
}
#: One-register integer operations (rd <- f(rs)).
_INT_UNARY = {
    "mov.i": lambda a: a,
    "neg.i": lambda a: _s32(-a),
    "not.i": lambda a: _s32(~a),
    "sext.b": lambda a: ((a & 0xFF) ^ 0x80) - 0x80,
    "zext.b": lambda a: a & 0xFF,
    "sext.h": lambda a: ((a & 0xFFFF) ^ 0x8000) - 0x8000,
    "zext.h": lambda a: a & 0xFFFF,
}
#: Double operators, each serving ``<op>.d``.
_DOUBLE_OPS = {"add": operator.add, "sub": operator.sub,
               "mul": operator.mul, "div": _ddiv}
#: Branch conditions, each serving ``b<cond>.i``, ``b<cond>u.i``,
#: ``b<cond>i.i``, ``b<cond>ui.i`` and ``b<cond>.d`` where the ISA has them.
_CONDITIONS = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
               "le": operator.le, "gt": operator.gt, "ge": operator.ge}
#: Integer load/store suffixes: (width in bytes, signed).  The ISA
#: stores only the signed ones, since a store's signedness is moot.
_WIDTHS = {"iw": (4, True), "ib": (1, True), "iub": (1, False),
           "ih": (2, True), "iuh": (2, False)}


def _alu(op):
    """(register, immediate) forms of one integer operator."""
    def reg(vm, ops, func, pc):
        r = vm.iregs
        r[ops[0]] = _s32(op(r[ops[1]], r[ops[2]]))

    def imm(vm, ops, func, pc):
        r = vm.iregs
        r[ops[0]] = _s32(op(r[ops[1]], ops[2]))
    return reg, imm


def _unary(op):
    """An integer ``rd <- op(rs)`` instruction."""
    def handler(vm, ops, func, pc):
        r = vm.iregs
        r[ops[0]] = op(r[ops[1]])
    return handler


def _double(op):
    """A double ``fd <- op(fs, ft)`` instruction."""
    def handler(vm, ops, func, pc):
        f = vm.fregs
        f[ops[0]] = op(f[ops[1]], f[ops[2]])
    return handler


def _mov_d(vm, ops, func, pc):
    vm.fregs[ops[0]] = vm.fregs[ops[1]]


def _neg_d(vm, ops, func, pc):
    vm.fregs[ops[0]] = -vm.fregs[ops[1]]


def _branches(cmp):
    """(register, unsigned, immediate, unsigned immediate, double) forms."""
    def reg(vm, ops, func, pc):
        r = vm.iregs
        if cmp(r[ops[0]], r[ops[1]]):
            return func, ops[2], None

    def ureg(vm, ops, func, pc):
        r = vm.iregs
        if cmp(_u32(r[ops[0]]), _u32(r[ops[1]])):
            return func, ops[2], None

    def imm(vm, ops, func, pc):
        if cmp(vm.iregs[ops[0]], ops[1]):
            return func, ops[2], None

    def uimm(vm, ops, func, pc):
        if cmp(_u32(vm.iregs[ops[0]]), _u32(ops[1])):
            return func, ops[2], None

    def double(vm, ops, func, pc):
        f = vm.fregs
        if cmp(f[ops[0]], f[ops[1]]):
            return func, ops[2], None
    return reg, ureg, imm, uimm, double


def _int_memory(size, signed):
    """(load, indexed load, store, indexed store) of one width."""
    def ld(vm, ops, func, pc):
        r = vm.iregs
        r[ops[0]] = vm.load(_u32(r[ops[2]]) + ops[1], size, signed)

    def ldx(vm, ops, func, pc):
        r = vm.iregs
        r[ops[0]] = vm.load(_u32(r[ops[1]]), size, signed)

    def st(vm, ops, func, pc):
        r = vm.iregs
        vm.store(_u32(r[ops[2]]) + ops[1], size, r[ops[0]])

    def stx(vm, ops, func, pc):
        r = vm.iregs
        vm.store(_u32(r[ops[1]]), size, r[ops[0]])
    return ld, ldx, st, stx


def _ld_d(vm, ops, func, pc):
    vm.fregs[ops[0]] = vm.load_double(_u32(vm.iregs[ops[2]]) + ops[1])


def _ldx_d(vm, ops, func, pc):
    vm.fregs[ops[0]] = vm.load_double(_u32(vm.iregs[ops[1]]))


def _st_d(vm, ops, func, pc):
    vm.store_double(_u32(vm.iregs[ops[2]]) + ops[1], vm.fregs[ops[0]])


def _stx_d(vm, ops, func, pc):
    vm.store_double(_u32(vm.iregs[ops[1]]), vm.fregs[ops[0]])


def _li(vm, ops, func, pc):
    vm.iregs[ops[0]] = _s32(ops[1])


def _la(vm, ops, func, pc):
    kind, value = ops[1]
    vm.iregs[ops[0]] = _s32(FUNC_ADDR_BASE + value if kind == "func"
                            else value)


def _li_d(vm, ops, func, pc):
    vm.fregs[ops[0]] = float(ops[1])


def _cvt_id(vm, ops, func, pc):
    vm.fregs[ops[0]] = float(vm.iregs[ops[1]])


def _cvt_ud(vm, ops, func, pc):
    vm.fregs[ops[0]] = float(_u32(vm.iregs[ops[1]]))


def _cvt_di(vm, ops, func, pc):
    # Also cvt.du: both keep the low 32 bits of the truncated value.
    vm.iregs[ops[0]] = _s32(_truncate(vm.fregs[ops[1]]))


def _jmp(vm, ops, func, pc):
    return func, ops[0], None


def _call(vm, ops, func, pc):
    kind, index = ops[0]
    if kind != "func":
        raise VMError("call target is not a function")
    vm.iregs[REG_RA] = _s32(RET_ADDR_BASE | (func << 16) | pc)
    return index, 0, None


def _calli(vm, ops, func, pc):
    regs = vm.iregs
    target = _u32(regs[ops[0]])
    if not FUNC_ADDR_BASE <= target < FUNC_ADDR_BASE + len(vm.program.functions):
        raise VMError(f"indirect call to non-function {target:#x}")
    regs[REG_RA] = _s32(RET_ADDR_BASE | (func << 16) | pc)
    return target - FUNC_ADDR_BASE, 0, None


def _rjr(vm, ops, func, pc):
    regs = vm.iregs
    target = _u32(regs[ops[0]])
    if target == HALT_ADDR:
        return func, pc, _s32(regs[0])
    if not RET_ADDR_BASE <= target < RET_ADDR_BASE + 0x0FFF_0000:
        raise VMError(f"return to non-return address {target:#x}")
    return (target - RET_ADDR_BASE) >> 16, target & 0xFFFF, None


def _blkcpy(vm, ops, func, pc):
    dst = _u32(vm.iregs[ops[0]])
    src = _u32(vm.iregs[ops[1]])
    n = ops[2]
    vm._check(dst, n)
    vm._check(src, n)
    vm.memory[dst : dst + n] = bytes(vm.memory[src : src + n])


def _sys(vm, ops, func, pc):
    vm._syscall(ops[0])
    if vm.exit_code is not None:
        return func, pc, vm.exit_code


def _hlt(vm, ops, func, pc):
    return func, pc, _s32(vm.iregs[0])


#: Every mnemonic's handler: the one definition of the ISA's semantics.
SEMANTICS = {
    "li": _li, "la": _la, "li.d": _li_d,
    "cvt.id": _cvt_id, "cvt.ud": _cvt_ud, "cvt.di": _cvt_di, "cvt.du": _cvt_di,
    "jmp": _jmp, "call": _call, "calli": _calli, "rjr": _rjr,
    "blkcpy": _blkcpy, "sys": _sys, "hlt": _hlt,
    "ld.d": _ld_d, "ldx.d": _ldx_d, "st.d": _st_d, "stx.d": _stx_d,
    "mov.d": _mov_d, "neg.d": _neg_d,
}
for _op, _fn in _INT_OPS.items():
    SEMANTICS[f"{_op}.i"], SEMANTICS[f"{_op}i.i"] = _alu(_fn)
for _name, _fn in _INT_UNARY.items():
    SEMANTICS[_name] = _unary(_fn)
for _op, _fn in _DOUBLE_OPS.items():
    SEMANTICS[f"{_op}.d"] = _double(_fn)
for _cond, _fn in _CONDITIONS.items():
    _forms = (f"b{_cond}.i", f"b{_cond}u.i", f"b{_cond}i.i", f"b{_cond}ui.i",
              f"b{_cond}.d")
    SEMANTICS.update(zip(_forms, _branches(_fn)))
for _suffix, (_size, _signed) in _WIDTHS.items():
    _forms = (f"ld.{_suffix}", f"ldx.{_suffix}", f"st.{_suffix}",
              f"stx.{_suffix}")
    SEMANTICS.update(zip(_forms, _int_memory(_size, _signed)))
# The frame macros are the displacement word load/store and the
# immediate subtract/add under their own opcodes.
SEMANTICS.update({"spill.i": SEMANTICS["st.iw"], "reload.i": SEMANTICS["ld.iw"],
                  "enter": SEMANTICS["subi.i"], "exit": SEMANTICS["addi.i"]})
# Drop the forms the ISA does not have (divi.i, bequ.i, st.iub, ...).
SEMANTICS = {name: SEMANTICS[name] for name in SPEC}


def run_program(
    program: VMProgram,
    entry: Optional[str] = None,
    args: Tuple[int, ...] = (),
    max_steps: int = 50_000_000,
    stdin: str = "",
) -> ExecutionResult:
    """Convenience wrapper: build an interpreter and run to completion."""
    interp = Interpreter(program, max_steps=max_steps, stdin=stdin)
    return interp.run(entry, args)
