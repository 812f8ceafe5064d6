"""Code generation: lcc-style tree IR to RISC VM instructions.

A tree-walking generator in lcc's spirit: locals live in the frame, each
forest tree is evaluated with a scratch-register pool (Sethi–Ullman
ordering keeps pressure low), and addressing modes / immediates are folded
when the target :class:`~repro.vm.isa.ISA` variant allows them — the knob
the paper's abstract-machine ablation turns.

Frame layout (stack grows down; all offsets from the callee's ``sp``)::

    sp + 0 .. locals           IR frame (ADDRLP offsets)
    sp + locals .. +4          saved ra
    (padding to 8)
    sp + F - P .. F            incoming parameters (ADDRFP offsets),
                               written by the caller below its own sp

``enter sp,sp,F`` claims the frame; arguments for an outgoing call are
stored at ``sp - total + slot`` immediately before ``call``, which is safe
because argument trees never contain calls (lowering hoists them).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..errors import CodegenError
from ..ir.tree import IRFunction, IRModule, Tree
from ..vm.instr import Instr, VMFunction, VMProgram
from ..vm.isa import ISA, REG_RA, REG_SP, SYSCALL_BY_NAME
from .peephole import peephole_function

__all__ = ["CodegenError", "generate_program", "generate_function"]


def _align(n: int, a: int) -> int:
    return (n + a - 1) // a * a


def _imm32(value: int) -> int:
    """Canonicalize an immediate to signed 32-bit (unsigned constants from
    the front end arrive in 0..2^32-1; the encoding is two's complement)."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


class _RegPool:
    """Scratch register pool; integer and double registers separately."""

    def __init__(self, int_count: int = 14, float_count: int = 8) -> None:
        self._free_i = list(range(int_count - 1, -1, -1))  # prefer n0 first
        self._free_f = list(range(float_count - 1, -1, -1))
        self._total_i = int_count
        self._total_f = float_count

    def alloc_i(self) -> int:
        if not self._free_i:
            raise CodegenError("out of integer scratch registers")
        return self._free_i.pop()

    def alloc_f(self) -> int:
        if not self._free_f:
            raise CodegenError("out of double scratch registers")
        return self._free_f.pop()

    def free_i(self, reg: int) -> None:
        self._free_i.append(reg)

    def free_f(self, reg: int) -> None:
        self._free_f.append(reg)

    @property
    def all_free(self) -> bool:
        return (len(self._free_i) == self._total_i
                and len(self._free_f) == self._total_f)


# Value: ("i", reg) for integer/pointer values, ("d", freg) for doubles.
Value = Tuple[str, int]

_ALU3 = {
    "ADDI": "add.i", "ADDU": "add.i", "ADDP": "add.i",
    "SUBI": "sub.i", "SUBU": "sub.i", "SUBP": "sub.i",
    "MULI": "mul.i", "MULU": "mul.i",
    "DIVI": "div.i", "DIVU": "divu.i",
    "MODI": "rem.i", "MODU": "remu.i",
    "BANDI": "and.i", "BANDU": "and.i",
    "BORI": "or.i", "BORU": "or.i",
    "BXORI": "xor.i", "BXORU": "xor.i",
    "LSHI": "shl.i", "LSHU": "shl.i",
    "RSHI": "sra.i", "RSHU": "shr.i",
}
# Immediate forms for commutative/offset-friendly ops.
_ALUI = {
    "ADDI": "addi.i", "ADDU": "addi.i", "ADDP": "addi.i",
    "SUBI": "subi.i", "SUBU": "subi.i", "SUBP": "subi.i",
    "MULI": "muli.i", "MULU": "muli.i",
    "BANDI": "andi.i", "BANDU": "andi.i",
    "BORI": "ori.i", "BORU": "ori.i",
    "BXORI": "xori.i", "BXORU": "xori.i",
    "LSHI": "shli.i", "LSHU": "shli.i",
    "RSHI": "srai.i", "RSHU": "shri.i",
}
_ALU3_D = {"ADDD": "add.d", "SUBD": "sub.d", "MULD": "mul.d", "DIVD": "div.d"}

_BRANCH = {
    "EQI": "beq.i", "NEI": "bne.i", "LTI": "blt.i",
    "LEI": "ble.i", "GTI": "bgt.i", "GEI": "bge.i",
    "EQU": "beq.i", "NEU": "bne.i", "LTU": "bltu.i",
    "LEU": "bleu.i", "GTU": "bgtu.i", "GEU": "bgeu.i",
}
_BRANCH_IMM = {
    "EQI": "beqi.i", "NEI": "bnei.i", "LTI": "blti.i",
    "LEI": "blei.i", "GTI": "bgti.i", "GEI": "bgei.i",
    "EQU": "beqi.i", "NEU": "bnei.i", "LTU": "bltui.i",
    "LEU": "bleui.i", "GTU": "bgtui.i", "GEU": "bgeui.i",
}
_BRANCH_D = {
    "EQD": "beq.d", "NED": "bne.d", "LTD": "blt.d",
    "LED": "ble.d", "GTD": "bgt.d", "GED": "bge.d",
}

_LOADS = {"C": "ld.ib", "S": "ld.ih", "I": "ld.iw", "U": "ld.iw", "P": "ld.iw"}
_LOADS_X = {"C": "ldx.ib", "S": "ldx.ih", "I": "ldx.iw", "U": "ldx.iw",
            "P": "ldx.iw"}
# Zero-extending loads for the CVUCI/CVUSI folds.
_ULOADS = {"C": "ld.iub", "S": "ld.iuh"}
_ULOADS_X = {"C": "ldx.iub", "S": "ldx.iuh"}
_STORES = {"C": "st.ib", "S": "st.ih", "I": "st.iw", "U": "st.iw", "P": "st.iw"}
_STORES_X = {"C": "stx.ib", "S": "stx.ih", "I": "stx.iw", "U": "stx.iw",
             "P": "stx.iw"}

_PASS_THROUGH_CV = {"CVIU", "CVUI", "CVPU", "CVUP", "CVIC", "CVIS"}
_EXTEND_CV = {"CVCI": "sext.b", "CVUCI": "zext.b",
              "CVSI": "sext.h", "CVUSI": "zext.h"}

_ARG_SLOTS = {"ARGI": 4, "ARGU": 4, "ARGP": 4, "ARGD": 8}


class FunctionGenerator:
    """Generates VM code for one IR function."""

    def __init__(self, fn: IRFunction, isa: ISA) -> None:
        self.fn = fn
        self.isa = isa
        self.out = VMFunction(fn.name)
        self.pool = _RegPool()
        locals_size = fn.frame_size
        self.ra_offset = locals_size
        inner = _align(locals_size + 4, 8)
        # Parameter-area size including alignment padding (doubles are
        # 8-aligned), mirroring both the lowering's ADDRFP offsets and the
        # caller's argument-slot layout.
        offset = 0
        for size in fn.param_sizes:
            offset = _align(offset, size)
            offset += size
        self.param_total = offset
        self.frame_total = _align(inner + self.param_total, 8)
        self.param_base = self.frame_total - self.param_total
        self.out.frame_size = self.frame_total
        self.out.param_bytes = self.param_total
        self._epilogue = f"{fn.name}.epilogue"

    # -- emission helpers --------------------------------------------------

    def emit(self, name: str, *operands) -> None:
        self.out.emit(Instr(name, tuple(operands)))

    def _li(self, value: int) -> int:
        reg = self.pool.alloc_i()
        self.emit("li", reg, _imm32(value))
        return reg

    def _addr_in_reg(self, base_reg: int, offset: int, free_base: bool) -> int:
        """Materialize ``base_reg + offset`` into a register."""
        if offset == 0:
            if free_base:
                return base_reg
            dst = self.pool.alloc_i()
            self.emit("mov.i", dst, base_reg)
            return dst
        if self.isa.immediates:
            dst = base_reg if free_base else self.pool.alloc_i()
            self.emit("addi.i", dst, base_reg, offset)
            return dst
        tmp = self._li(offset)
        self.emit("add.i", tmp, base_reg, tmp)
        if free_base:
            self.pool.free_i(base_reg)
        return tmp

    # -- statement-level trees -------------------------------------------

    def gen_root(self, tree: Tree) -> None:
        name = tree.op.name
        if name == "LABELV":
            assert isinstance(tree.value, str)
            self.out.define_label(tree.value)
            return
        if name == "JUMPV":
            self.emit("jmp", tree.value)
            return
        if name.startswith("ASGN"):
            self.gen_store(tree)
            return
        if tree.op.is_branch:
            self.gen_branch(tree)
            return
        if name.startswith("ARG"):
            # gen_root is called per-tree; ARG groups are handled here by
            # peeking is not possible, so ARG trees carry their own slot
            # bookkeeping via _pending_args set up by generate_function.
            raise CodegenError("ARG tree reached gen_root unscheduled")
        if name.startswith("CALL"):
            self.gen_call(tree, want_value=False)
            return
        if name.startswith("RET"):
            self.gen_return(tree)
            return
        raise CodegenError(f"unexpected root tree {name}")

    def gen_args_and_call(self, args: List[Tree], call_parent: Tree) -> None:
        """Generate an ARG… CALL group (call_parent holds the CALL)."""
        # Slot layout mirrors the callee's parameter layout.
        offsets: List[int] = []
        cursor = 0
        for arg in args:
            size = _ARG_SLOTS[arg.op.name]
            cursor = _align(cursor, size)
            offsets.append(cursor)
            cursor += size
        total = cursor
        for arg, off in zip(args, offsets):
            kind, reg = self.gen_value(arg.kids[0])
            target = self._frame_operand(off - total)
            if kind == "d":
                self._store_to(None, "D", target, ("d", reg))
            else:
                self._store_to(None, "I", target, ("i", reg))
        self.gen_root(call_parent)

    def gen_store(self, tree: Tree) -> None:
        name = tree.op.name
        addr, value = tree.kids
        if name == "ASGNB":
            dst_kind, dst = self.gen_value(addr)
            src_kind, src = self.gen_value(value)
            assert isinstance(tree.value, int)
            self.emit("blkcpy", dst, src, tree.value)
            self.pool.free_i(dst)
            self.pool.free_i(src)
            return
        suffix = name[-1]
        val = self.gen_value(value)
        target = self._addressing(addr)
        self._store_to(addr, suffix, target, val)

    def _addressing(self, addr: Tree) -> Tuple[Union[str, int], int]:
        """Resolve an address tree to (base, offset) for a memory access.

        base is "sp" (frame-relative), or an allocated register index.
        When displacement addressing is disabled, offset is folded into the
        register and comes back 0.
        """
        name = addr.op.name
        if name == "ADDRLP":
            assert isinstance(addr.value, int)
            return self._frame_operand(addr.value)
        if name == "ADDRFP":
            assert isinstance(addr.value, int)
            return self._frame_operand(self.param_base + addr.value)
        if name == "ADDRGP":
            reg = self.pool.alloc_i()
            self.emit("la", reg, addr.value)
            return reg, 0
        if name == "ADDP" and addr.kids[1].op.name == "CNSTI" and self.isa.regdisp:
            base_kind, base = self.gen_value(addr.kids[0])
            assert isinstance(addr.kids[1].value, int)
            return base, addr.kids[1].value
        kind, reg = self.gen_value(addr)
        return reg, 0

    def _frame_operand(self, offset: int) -> Tuple[Union[str, int], int]:
        if self.isa.regdisp:
            return "sp", offset
        reg = self._addr_in_reg(REG_SP, offset, free_base=False)
        return reg, 0

    def _store_to(
        self,
        addr_tree: Optional[Tree],
        suffix: str,
        target: Tuple[Union[str, int], int],
        value: Value,
    ) -> None:
        base, offset = target
        kind, reg = value
        base_reg = REG_SP if base == "sp" else base
        if suffix == "D":
            if self.isa.regdisp:
                self.emit("st.d", reg, offset, base_reg)
            else:
                assert offset == 0
                self.emit("stx.d", reg, base_reg)
            self.pool.free_f(reg)
        else:
            if self.isa.regdisp:
                self.emit(_STORES[suffix], reg, offset, base_reg)
            else:
                assert offset == 0
                self.emit(_STORES_X[suffix], reg, base_reg)
            self.pool.free_i(reg)
        if base != "sp":
            self.pool.free_i(base_reg)

    def gen_branch(self, tree: Tree) -> None:
        name = tree.op.name
        label = tree.value
        assert isinstance(label, str)
        if name in _BRANCH_D:
            lk, left = self.gen_value(tree.kids[0])
            rk, right = self.gen_value(tree.kids[1])
            self.emit(_BRANCH_D[name], left, right, label)
            self.pool.free_f(left)
            self.pool.free_f(right)
            return
        lk, left = self.gen_value(tree.kids[0])
        imm = self._imm_of(tree.kids[1])
        if imm is not None and self.isa.immediates:
            self.emit(_BRANCH_IMM[name], left, imm, label)
            self.pool.free_i(left)
            return
        rk, right = self.gen_value(tree.kids[1])
        self.emit(_BRANCH[name], left, right, label)
        self.pool.free_i(left)
        self.pool.free_i(right)

    def gen_call(self, tree: Tree, want_value: bool = True) -> Value:
        """Generate a CALL tree; returns the value holding the result.

        With ``want_value=False`` the result register (n0/f0) is left
        unclaimed — used for calls in statement position.
        """
        target = tree.kids[0]
        suffix = tree.op.name[-1]
        if target.op.name == "ADDRGP" and isinstance(target.value, str):
            sysno = SYSCALL_BY_NAME.get(target.value)
            if sysno is not None:
                self.emit("sys", sysno)
            else:
                self.emit("call", target.value)
        else:
            kind, reg = self.gen_value(target)
            self.emit("calli", reg)
            self.pool.free_i(reg)
        if suffix == "V" or not want_value:
            return ("i", -1)
        if suffix == "D":
            freg = self.pool.alloc_f()
            self.emit("mov.d", freg, 0)
            return ("d", freg)
        reg = self.pool.alloc_i()
        self.emit("mov.i", reg, 0)
        return ("i", reg)

    def gen_return(self, tree: Tree) -> None:
        name = tree.op.name
        if name != "RETV":
            kind, reg = self.gen_value(tree.kids[0])
            if kind == "d":
                if reg != 0:
                    self.emit("mov.d", 0, reg)
                self.pool.free_f(reg)
            else:
                if reg != 0:
                    self.emit("mov.i", 0, reg)
                self.pool.free_i(reg)
        self.emit("jmp", self._epilogue)

    # -- value trees -------------------------------------------------------

    @staticmethod
    def _imm_of(tree: Tree) -> Optional[int]:
        if tree.op.name in ("CNSTC", "CNSTS", "CNSTI", "CNSTU", "CNSTP") \
                and isinstance(tree.value, int):
            return _imm32(tree.value)
        return None

    @staticmethod
    def _needs(tree: Tree) -> int:
        """Sethi–Ullman register need, for evaluation ordering."""
        if not tree.kids:
            return 1
        if len(tree.kids) == 1:
            return FunctionGenerator._needs(tree.kids[0])
        a = FunctionGenerator._needs(tree.kids[0])
        b = FunctionGenerator._needs(tree.kids[1])
        return max(a, b) if a != b else a + 1

    def gen_value(self, tree: Tree) -> Value:
        name = tree.op.name

        # Leaves -----------------------------------------------------------
        if name in ("CNSTC", "CNSTS", "CNSTI", "CNSTU", "CNSTP"):
            assert isinstance(tree.value, int)
            return ("i", self._li(tree.value))
        if name == "CNSTD":
            freg = self.pool.alloc_f()
            self.emit("li.d", freg, float(tree.value))
            return ("d", freg)
        if name == "ADDRGP":
            reg = self.pool.alloc_i()
            self.emit("la", reg, tree.value)
            return ("i", reg)
        if name == "ADDRLP":
            assert isinstance(tree.value, int)
            return ("i", self._addr_in_reg(REG_SP, tree.value, free_base=False))
        if name == "ADDRFP":
            assert isinstance(tree.value, int)
            return ("i", self._addr_in_reg(
                REG_SP, self.param_base + tree.value, free_base=False))

        # Loads (with sign/zero-extension folds) ---------------------------
        if name in _EXTEND_CV and tree.kids[0].op.name.startswith("INDIR"):
            inner = tree.kids[0]
            suffix = inner.op.name[-1]
            signed = name in ("CVCI", "CVSI")
            return self._gen_load(inner.kids[0], suffix, signed)
        if name.startswith("INDIR"):
            suffix = name[-1]
            if suffix == "D":
                return self._gen_load(tree.kids[0], "D", True)
            return self._gen_load(tree.kids[0], suffix, True)

        # Conversions -------------------------------------------------------
        if name in _PASS_THROUGH_CV:
            return self.gen_value(tree.kids[0])
        if name in _EXTEND_CV:
            kind, reg = self.gen_value(tree.kids[0])
            self.emit(_EXTEND_CV[name], reg, reg)
            return ("i", reg)
        if name in ("CVID", "CVUD"):
            kind, reg = self.gen_value(tree.kids[0])
            freg = self.pool.alloc_f()
            self.emit("cvt.id" if name == "CVID" else "cvt.ud", freg, reg)
            self.pool.free_i(reg)
            return ("d", freg)
        if name in ("CVDI", "CVDU"):
            kind, freg = self.gen_value(tree.kids[0])
            reg = self.pool.alloc_i()
            self.emit("cvt.di" if name == "CVDI" else "cvt.du", reg, freg)
            self.pool.free_f(freg)
            return ("i", reg)

        # Unary arithmetic ---------------------------------------------------
        if name in ("NEGI", "BCOMI", "BCOMU"):
            kind, reg = self.gen_value(tree.kids[0])
            self.emit("neg.i" if name == "NEGI" else "not.i", reg, reg)
            return ("i", reg)
        if name == "NEGD":
            kind, freg = self.gen_value(tree.kids[0])
            self.emit("neg.d", freg, freg)
            return ("d", freg)

        # Binary arithmetic --------------------------------------------------
        if name in _ALU3_D:
            lk, left = self.gen_value(tree.kids[0])
            rk, right = self.gen_value(tree.kids[1])
            self.emit(_ALU3_D[name], left, left, right)
            self.pool.free_f(right)
            return ("d", left)
        if name in _ALU3:
            imm = self._imm_of(tree.kids[1])
            if imm is not None and self.isa.immediates and name in _ALUI:
                lk, left = self.gen_value(tree.kids[0])
                self.emit(_ALUI[name], left, left, imm)
                return ("i", left)
            # Evaluate the needier side first (Sethi–Ullman).
            first, second = 0, 1
            if self._needs(tree.kids[1]) > self._needs(tree.kids[0]):
                first, second = 1, 0
            vals: Dict[int, int] = {}
            for idx in (first, second):
                kind, reg = self.gen_value(tree.kids[idx])
                vals[idx] = reg
            self.emit(_ALU3[name], vals[0], vals[0], vals[1])
            self.pool.free_i(vals[1])
            return ("i", vals[0])

        # Calls in value position -------------------------------------------
        if name.startswith("CALL"):
            return self.gen_call(tree)

        raise CodegenError(f"cannot generate value for {name}")

    def _gen_load(self, addr: Tree, suffix: str, signed: bool) -> Value:
        base, offset = self._addressing(addr)
        base_reg = REG_SP if base == "sp" else base
        if suffix == "D":
            freg = self.pool.alloc_f()
            if self.isa.regdisp:
                self.emit("ld.d", freg, offset, base_reg)
            else:
                assert offset == 0
                self.emit("ldx.d", freg, base_reg)
            if base != "sp":
                self.pool.free_i(base_reg)
            return ("d", freg)
        if base == "sp":
            reg = self.pool.alloc_i()
        else:
            reg = base_reg  # reuse the address register for the result
        table = (_LOADS if signed else {**_LOADS, **_ULOADS})
        table_x = (_LOADS_X if signed else {**_LOADS_X, **_ULOADS_X})
        if self.isa.regdisp:
            self.emit(table[suffix], reg, offset, base_reg)
        else:
            assert offset == 0
            self.emit(table_x[suffix], reg, base_reg)
        return ("i", reg)


def generate_function(fn: IRFunction, isa: Optional[ISA] = None,
                      optimize: bool = True) -> VMFunction:
    """Generate VM code for one IR function (peephole-cleaned by default)."""
    isa = isa or ISA()
    gen = FunctionGenerator(fn, isa)
    # Pre-group ARG…CALL sequences so argument slots can be laid out.
    out = gen.out
    forest = fn.forest
    gen.emit("enter", REG_SP, REG_SP, gen.frame_total)
    if isa.regdisp:
        gen.emit("spill.i", REG_RA, gen.ra_offset, REG_SP)
    else:
        # n13 is dead here; going through the pool could hand out n0,
        # which must stay clear of the prologue/epilogue (return value).
        gen.emit("addi.i" if isa.immediates else "li", 13,
                 *( (REG_SP, gen.ra_offset) if isa.immediates
                    else (gen.ra_offset,) ))
        if not isa.immediates:
            gen.emit("add.i", 13, REG_SP, 13)
        gen.emit("stx.iw", REG_RA, 13)
    i = 0
    while i < len(forest):
        tree = forest[i]
        if tree.op.name.startswith("ARG"):
            args = []
            while i < len(forest) and forest[i].op.name.startswith("ARG"):
                args.append(forest[i])
                i += 1
            if i >= len(forest):
                raise CodegenError("ARG trees with no following CALL")
            gen.gen_args_and_call(args, forest[i])
        else:
            gen.gen_root(tree)
        if not gen.pool.all_free:
            raise CodegenError(f"register leak after {tree} in {fn.name}")
        i += 1
    out.define_label(gen._epilogue)
    if isa.regdisp:
        gen.emit("reload.i", REG_RA, gen.ra_offset, REG_SP)
    else:
        gen.emit("addi.i" if isa.immediates else "li", 13,
                 *( (REG_SP, gen.ra_offset) if isa.immediates
                    else (gen.ra_offset,) ))
        if not isa.immediates:
            gen.emit("add.i", 13, REG_SP, 13)
        gen.emit("ldx.iw", REG_RA, 13)
    gen.emit("exit", REG_SP, REG_SP, gen.frame_total)
    gen.emit("rjr", REG_RA)
    if optimize:
        out = peephole_function(out)
    return out


def generate_program(
    module: IRModule, isa: Optional[ISA] = None, entry: str = "main",
    optimize: bool = True, reuse: Optional[Dict[int, VMFunction]] = None,
) -> VMProgram:
    """Generate a linked VM program from an IR module.

    ``reuse`` maps ``id(ir_function)`` to a VM function already generated
    from that very IR function, taken as it is.  Linking checks that
    every ``call`` and ``la`` names a function or global of the program,
    as the VM's loader does.
    """
    isa = isa or ISA()
    reuse = reuse or {}
    program = VMProgram(module.name, entry=entry)
    program.globals = list(module.globals)
    for fn in module.functions:
        vm = reuse.get(id(fn))
        program.functions.append(
            vm if vm is not None else generate_function(fn, isa, optimize))
    symbols = {fn.name for fn in program.functions}
    symbols.update(g.name for g in program.globals)
    for fn in program.functions:
        for instr in fn.code:
            if instr.name in ("call", "la") \
                    and instr.operands[-1] not in symbols:
                raise CodegenError(
                    f"undefined symbol {instr.operands[-1]!r} in {fn.name}")
    return program
