"""Lowering from the checked C AST to lcc-style tree IR.

Produces the forest shape the paper shows: assignments, compare-and-branch
operators with label literals, ``ARG*`` trees preceding ``CALL*`` trees,
``ADDRLP/ADDRFP/ADDRGP`` leaves with literal offsets/names.

Value-representation invariants:

* char/short values are carried as sign- (or zero-) extended 32-bit ints;
  ``INDIRC``/``CVCI`` normalize on load and truncation.
* struct-typed expressions evaluate to the struct's *address* (lcc's
  implicit ``INDIRB`` elision); only ``ASGNB`` consumes them.
* all side effects (stores, calls) are emitted as forest trees, so any
  value tree returned by the expression lowerer is pure and discardable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..cfront import ctypes as ct
from ..cfront.astnodes import (
    Assign, Binary, Block, Break, Call, Case, Cast, Conditional, Continue,
    DeclStmt, DoWhile, EmptyStmt, Expr, ExprStmt, FloatLit, For, FunctionDef,
    If, ImplicitCast, IncDec, Index, InitList, Initializer, IntLit, Member,
    NameRef, Return, Stmt, StringLit, Switch, TranslationUnit, Unary,
    VarDecl, While,
)
from ..cfront.ctypes import (
    ArrayType, CType, FloatType, FunctionType, IntType, PointerType,
    StructType, VoidType,
)
from ..cfront.errors import CompileError, Location
from ..cfront.symbols import Storage, Symbol
from .tree import GlobalData, IRFunction, IRModule, PtrInit, ScalarInit, Tree, T

__all__ = ["lower_unit", "suffix_of"]


def suffix_of(t: CType) -> str:
    """The IR type suffix used for loads/stores of ``t``."""
    if isinstance(t, PointerType):
        return "P"
    if isinstance(t, FloatType):
        return "D"
    if isinstance(t, IntType):
        if t.width == 1:
            return "C"
        if t.width == 2:
            return "S"
        return "U" if not t.signed else "I"
    if isinstance(t, FunctionType):
        return "P"
    raise CompileError(f"no scalar IR suffix for type '{t}'")


def _value_suffix(t: CType) -> str:
    """The suffix of the *computed value* (small ints widen to I)."""
    s = suffix_of(t)
    if s in ("C", "S"):
        return "U" if isinstance(t, IntType) and not t.signed else "I"
    return s


def _align(offset: int, align: int) -> int:
    return (offset + align - 1) // align * align


def _wrap8(value: int) -> int:
    """Wrap a byte value into signed-char range (CNSTC literals)."""
    value &= 0xFF
    return value - 256 if value >= 128 else value


class _LoopContext:
    """Targets for break/continue inside the innermost loop/switch."""

    def __init__(self, break_label: str, continue_label: Optional[str]) -> None:
        self.break_label = break_label
        self.continue_label = continue_label


class FunctionLowerer:
    """Lowers one function body to an :class:`IRFunction`."""

    def __init__(self, fn: FunctionDef, module: "ModuleLowerer") -> None:
        self.fn = fn
        self.module = module
        self.out = IRFunction(fn.name)
        self._frame = 0
        self._labels = 0
        self._loops: List[_LoopContext] = []
        assert isinstance(fn.type, FunctionType)
        ret = fn.type.ret
        self.out.ret_suffix = "V" if isinstance(ret, VoidType) else _value_suffix(ret)
        # Parameter area layout: each param gets at least 4 bytes.
        offset = 0
        for param in fn.params:
            size = max(4, param.type.size)
            align = max(4, param.type.align)
            offset = _align(offset, align)
            assert isinstance(param.symbol, Symbol)
            param.symbol.frame_offset = offset
            offset += size
            self.out.param_sizes.append(size)

    # -- bookkeeping -------------------------------------------------------

    def new_label(self) -> str:
        self._labels += 1
        return f"{self.fn.name}.L{self._labels}"

    def new_temp(self, size: int, align: int) -> int:
        """Reserve frame space for a temporary; returns its offset."""
        self._frame = _align(self._frame, align)
        offset = self._frame
        self._frame += size
        return offset

    def declare_local(self, sym: Symbol) -> None:
        size = max(1, sym.type.size)
        self._frame = _align(self._frame, max(1, sym.type.align))
        sym.frame_offset = self._frame
        self._frame += size

    def emit(self, tree: Tree) -> None:
        self.out.forest.append(tree)

    def emit_label(self, label: str) -> None:
        self.emit(T("LABELV", value=label))

    def emit_jump(self, label: str) -> None:
        self.emit(T("JUMPV", value=label))

    # -- driver ------------------------------------------------------------

    def run(self) -> IRFunction:
        assert self.fn.body is not None
        self.stmt(self.fn.body)
        # Guarantee the function ends with a return.
        if not self.out.forest or self.out.forest[-1].op.name not in (
            "RETI", "RETU", "RETP", "RETD", "RETV", "JUMPV"
        ):
            if self.out.ret_suffix == "V":
                self.emit(T("RETV"))
            else:
                zero = (
                    T("CNSTD", value=0.0)
                    if self.out.ret_suffix == "D"
                    else T(f"CNST{self.out.ret_suffix}", value=0)
                )
                self.emit(T(f"RET{self.out.ret_suffix}", zero))
        self.out.frame_size = _align(self._frame, 8)
        return self.out

    # -- statements --------------------------------------------------------

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, Block):
            for item in s.body:
                self.stmt(item)
        elif isinstance(s, ExprStmt):
            assert s.expr is not None
            self.effect(s.expr)
        elif isinstance(s, DeclStmt):
            for decl in s.decls:
                self._lower_local_decl(decl)
        elif isinstance(s, If):
            self._lower_if(s)
        elif isinstance(s, While):
            self._lower_while(s)
        elif isinstance(s, DoWhile):
            self._lower_dowhile(s)
        elif isinstance(s, For):
            self._lower_for(s)
        elif isinstance(s, Return):
            self._lower_return(s)
        elif isinstance(s, Break):
            self.emit_jump(self._loops[-1].break_label)
        elif isinstance(s, Continue):
            target = next(
                ctx.continue_label
                for ctx in reversed(self._loops)
                if ctx.continue_label is not None
            )
            self.emit_jump(target)
        elif isinstance(s, Switch):
            self._lower_switch(s)
        elif isinstance(s, EmptyStmt):
            pass
        elif isinstance(s, Case):  # pragma: no cover - sema rejects these
            raise CompileError("case outside switch", s.location)
        else:  # pragma: no cover
            raise AssertionError(f"unhandled statement {type(s).__name__}")

    def _lower_local_decl(self, decl: VarDecl) -> None:
        sym = decl.symbol
        if not isinstance(sym, Symbol) or sym.storage is not Storage.LOCAL:
            return  # hoisted statics are initialized in the image
        self.declare_local(sym)
        if decl.init is None:
            return
        addr = self._local_addr(sym)
        self._init_into(decl.type, decl.init, addr)

    def _init_into(
        self, t: CType, init: Union[Initializer, InitList], addr: Tree
    ) -> None:
        """Emit stores initializing the object at ``addr`` (a P tree)."""
        if isinstance(init, Initializer):
            assert init.expr is not None
            if isinstance(t, ArrayType) and isinstance(init.expr, StringLit):
                text = init.expr.value
                count = t.count or (len(text) + 1)
                for i in range(min(count, len(text) + 1)):
                    byte = ord(text[i]) if i < len(text) else 0
                    self.emit(T("ASGNC", self._offset_addr(addr, i),
                                T("CNSTC", value=_wrap8(byte))))
                return
            if isinstance(t, StructType):
                src = self.rv(init.expr)
                self.emit(T("ASGNB", addr, src, value=t.size))
                return
            value = self.rv(init.expr)
            self.emit(T(f"ASGN{suffix_of(t)}", addr, value))
            return
        if isinstance(t, ArrayType):
            esize = t.element.size
            for i, item in enumerate(init.items):
                self._init_into(t.element, item, self._offset_addr(addr, i * esize))
            # Remaining elements are zeroed.
            for i in range(len(init.items), t.count or len(init.items)):
                self._zero_into(t.element, self._offset_addr(addr, i * esize))
            return
        if isinstance(t, StructType):
            assert t.members is not None
            for member, item in zip(t.members, init.items):
                self._init_into(member.type, item,
                                self._offset_addr(addr, member.offset))
            for member in t.members[len(init.items):]:
                self._zero_into(member.type, self._offset_addr(addr, member.offset))
            return
        # Scalar wrapped in braces.
        self._init_into(t, init.items[0], addr)

    def _zero_into(self, t: CType, addr: Tree) -> None:
        if isinstance(t, ArrayType):
            for i in range(t.count or 0):
                self._zero_into(t.element, self._offset_addr(addr, i * t.element.size))
            return
        if isinstance(t, StructType):
            assert t.members is not None
            for member in t.members:
                self._zero_into(member.type, self._offset_addr(addr, member.offset))
            return
        if isinstance(t, FloatType):
            self.emit(T("ASGND", addr, T("CNSTD", value=0.0)))
            return
        suffix = suffix_of(t)
        self.emit(T(f"ASGN{suffix}", addr, T(f"CNST{suffix}", value=0)))

    def _lower_if(self, s: If) -> None:
        assert s.cond is not None and s.then is not None
        if s.otherwise is None:
            end = self.new_label()
            self.cond(s.cond, end, branch_if_true=False)
            self.stmt(s.then)
            self.emit_label(end)
            return
        other = self.new_label()
        end = self.new_label()
        self.cond(s.cond, other, branch_if_true=False)
        self.stmt(s.then)
        self.emit_jump(end)
        self.emit_label(other)
        self.stmt(s.otherwise)
        self.emit_label(end)

    def _lower_while(self, s: While) -> None:
        assert s.cond is not None and s.body is not None
        body = self.new_label()
        test = self.new_label()
        end = self.new_label()
        self.emit_jump(test)
        self.emit_label(body)
        self._loops.append(_LoopContext(end, test))
        self.stmt(s.body)
        self._loops.pop()
        self.emit_label(test)
        self.cond(s.cond, body, branch_if_true=True)
        self.emit_label(end)

    def _lower_dowhile(self, s: DoWhile) -> None:
        assert s.cond is not None and s.body is not None
        body = self.new_label()
        test = self.new_label()
        end = self.new_label()
        self.emit_label(body)
        self._loops.append(_LoopContext(end, test))
        self.stmt(s.body)
        self._loops.pop()
        self.emit_label(test)
        self.cond(s.cond, body, branch_if_true=True)
        self.emit_label(end)

    def _lower_for(self, s: For) -> None:
        assert s.body is not None
        if isinstance(s.init, DeclStmt):
            for decl in s.init.decls:
                self._lower_local_decl(decl)
        elif isinstance(s.init, Expr):
            self.effect(s.init)
        body = self.new_label()
        step = self.new_label()
        test = self.new_label()
        end = self.new_label()
        self.emit_jump(test)
        self.emit_label(body)
        self._loops.append(_LoopContext(end, step))
        self.stmt(s.body)
        self._loops.pop()
        self.emit_label(step)
        if s.step is not None:
            self.effect(s.step)
        self.emit_label(test)
        if s.cond is None:
            self.emit_jump(body)
        else:
            self.cond(s.cond, body, branch_if_true=True)
        self.emit_label(end)

    def _lower_return(self, s: Return) -> None:
        if s.value is None:
            self.emit(T("RETV"))
            return
        value = self.rv(s.value)
        suffix = self.out.ret_suffix
        # Small return types were coerced by sema to the declared type;
        # widen the value back to a register-sized kind.
        assert s.value.ctype is not None
        value = _widen(value, s.value.ctype)
        self.emit(T(f"RET{suffix}", value))

    def _lower_switch(self, s: Switch) -> None:
        assert s.scrutinee is not None and s.body is not None
        scrut = self.rv(s.scrutinee)
        temp = self.new_temp(4, 4)
        self.emit(T("ASGNI", T("ADDRLP", value=temp), scrut))
        load = lambda: T("INDIRI", T("ADDRLP", value=temp))

        # Collect the cases in source order.
        items: List[Stmt]
        if isinstance(s.body, Block):
            items = s.body.body
        else:
            items = [s.body]
        cases = [item for item in items if isinstance(item, Case)]
        end = self.new_label()
        case_labels: Dict[int, str] = {}
        default_label: Optional[str] = None
        for case in cases:
            label = self.new_label()
            case_labels[id(case)] = label
            if case.const_value is None:
                default_label = label
        # Dispatch: a compare-and-branch chain (lcc uses search trees for
        # big switches; a chain preserves the same IR operator mix).
        for case in cases:
            if case.const_value is not None:
                self.emit(
                    T("EQI", load(), T("CNSTI", value=case.const_value),
                      value=case_labels[id(case)])
                )
        self.emit_jump(default_label if default_label is not None else end)
        # Body, with labels at case positions; break exits the switch.
        self._loops.append(_LoopContext(end, None))
        for item in items:
            if isinstance(item, Case):
                self.emit_label(case_labels[id(item)])
                if item.body is not None:
                    self.stmt(item.body)
            else:
                self.stmt(item)
        self._loops.pop()
        self.emit_label(end)

    # -- conditions ----------------------------------------------------

    _NEGATE = {"EQ": "NE", "NE": "EQ", "LT": "GE", "GE": "LT",
               "LE": "GT", "GT": "LE"}
    _CMP_OPS = {"==": "EQ", "!=": "NE", "<": "LT", "<=": "LE",
                ">": "GT", ">=": "GE"}

    def cond(self, expr: Expr, label: str, branch_if_true: bool) -> None:
        """Emit compare-and-branch trees: jump to ``label`` when the
        condition's truth equals ``branch_if_true``; otherwise fall through.
        """
        if isinstance(expr, Unary) and expr.op == "!":
            assert expr.operand is not None
            self.cond(expr.operand, label, not branch_if_true)
            return
        if isinstance(expr, Binary) and expr.op in ("&&", "||"):
            assert expr.left is not None and expr.right is not None
            is_and = expr.op == "&&"
            if is_and == branch_if_true:
                # AND branching on true / OR branching on false: need a
                # short-circuit label past the second test.
                skip = self.new_label()
                self.cond(expr.left, skip, not is_and)
                self.cond(expr.right, label, branch_if_true)
                self.emit_label(skip)
            else:
                self.cond(expr.left, label, not is_and)
                self.cond(expr.right, label, branch_if_true)
            return
        if isinstance(expr, Binary) and expr.op in self._CMP_OPS:
            assert expr.left is not None and expr.right is not None
            base = self._CMP_OPS[expr.op]
            if not branch_if_true:
                base = self._NEGATE[base]
            assert expr.left.ctype is not None
            suffix, wrap = self._cmp_suffix(expr.left.ctype)
            left = wrap(self.rv(expr.left), expr.left.ctype)
            right = wrap(self.rv(expr.right), expr.right.ctype or expr.left.ctype)
            self.emit(T(f"{base}{suffix}", left, right, value=label))
            return
        if isinstance(expr, IntLit):
            if bool(expr.value) == branch_if_true:
                self.emit_jump(label)
            return
        # Generic scalar: compare against zero.
        assert expr.ctype is not None
        value = self.rv(expr)
        suffix, wrap = self._cmp_suffix(expr.ctype)
        value = wrap(value, expr.ctype)
        zero = T("CNSTD", value=0.0) if suffix == "D" else T(f"CNST{suffix}", value=0)
        base = "NE" if branch_if_true else "EQ"
        self.emit(T(f"{base}{suffix}", value, zero, value=label))

    @staticmethod
    def _cmp_suffix(t: CType):
        """Branch suffix for comparing values of type ``t`` plus a wrapper
        that widens/reinterprets the value tree to that suffix."""
        if isinstance(t, PointerType):
            return "U", lambda tree, ty: T("CVPU", tree)
        if isinstance(t, FloatType):
            return "D", lambda tree, ty: tree
        assert isinstance(t, IntType)
        if t.width < 4:
            return "I", lambda tree, ty: _widen(tree, ty)
        if not t.signed:
            return "U", lambda tree, ty: tree
        return "I", lambda tree, ty: tree

    def cond_value(self, expr: Expr) -> Tree:
        """Materialize a boolean expression as an int 0/1 value."""
        temp = self.new_temp(4, 4)
        true = self.new_label()
        end = self.new_label()
        self.cond(expr, true, branch_if_true=True)
        self.emit(T("ASGNI", T("ADDRLP", value=temp), T("CNSTI", value=0)))
        self.emit_jump(end)
        self.emit_label(true)
        self.emit(T("ASGNI", T("ADDRLP", value=temp), T("CNSTI", value=1)))
        self.emit_label(end)
        return T("INDIRI", T("ADDRLP", value=temp))

    # -- expressions -------------------------------------------------------

    def effect(self, expr: Expr) -> None:
        """Lower ``expr`` for its side effects, discarding the value."""
        if isinstance(expr, Call):
            self._lower_call(expr, want_value=False)
            return
        if isinstance(expr, Assign):
            self._lower_assign(expr, want_value=False)
            return
        if isinstance(expr, IncDec):
            self._lower_incdec(expr, want_value=False)
            return
        if isinstance(expr, Binary) and expr.op == ",":
            assert expr.left is not None and expr.right is not None
            self.effect(expr.left)
            self.effect(expr.right)
            return
        if isinstance(expr, Conditional):
            assert expr.cond is not None
            other = self.new_label()
            end = self.new_label()
            self.cond(expr.cond, other, branch_if_true=False)
            assert expr.then is not None and expr.otherwise is not None
            self.effect(expr.then)
            self.emit_jump(end)
            self.emit_label(other)
            self.effect(expr.otherwise)
            self.emit_label(end)
            return
        if isinstance(expr, (ImplicitCast, Cast)) and expr.operand is not None:
            self.effect(expr.operand)
            return
        # Pure expression as a statement: evaluate for nested effects only.
        self.rv(expr)

    def rv(self, expr: Expr) -> Tree:
        """Lower ``expr`` to a value tree (struct values yield addresses)."""
        if isinstance(expr, IntLit):
            t = expr.ctype
            suffix = suffix_of(t) if t is not None else "I"
            if suffix == "D":
                return T("CNSTD", value=float(expr.value))
            return T(f"CNST{suffix}", value=expr.value)
        if isinstance(expr, FloatLit):
            return T("CNSTD", value=expr.value)
        if isinstance(expr, StringLit):
            assert expr.label is not None
            return T("ADDRGP", value=expr.label)
        if isinstance(expr, NameRef):
            return self._lower_nameref(expr)
        if isinstance(expr, Unary):
            return self._lower_unary(expr)
        if isinstance(expr, Binary):
            return self._lower_binary(expr)
        if isinstance(expr, Assign):
            result = self._lower_assign(expr, want_value=True)
            assert result is not None
            return result
        if isinstance(expr, Conditional):
            return self._lower_conditional_value(expr)
        if isinstance(expr, Call):
            result = self._lower_call(expr, want_value=True)
            assert result is not None
            return result
        if isinstance(expr, (Index, Member)):
            return self._load(self.lv(expr), expr.ctype)
        if isinstance(expr, (ImplicitCast, Cast)):
            return self._lower_cast(expr)
        if isinstance(expr, IncDec):
            result = self._lower_incdec(expr, want_value=True)
            assert result is not None
            return result
        raise AssertionError(f"unhandled expression {type(expr).__name__}")

    def lv(self, expr: Expr) -> Tree:
        """Lower ``expr`` to an address tree."""
        if isinstance(expr, NameRef):
            sym = expr.symbol
            assert isinstance(sym, Symbol)
            return self._symbol_addr(sym)
        if isinstance(expr, Unary) and expr.op == "*":
            assert expr.operand is not None
            return self.rv(expr.operand)
        if isinstance(expr, Index):
            assert expr.base is not None and expr.index is not None
            base = self.rv(expr.base)
            assert isinstance(expr.base.ctype, PointerType)
            esize = expr.base.ctype.target.size
            return self._pointer_offset(base, self.rv(expr.index), esize)
        if isinstance(expr, Member):
            assert expr.base is not None
            if expr.arrow:
                base = self.rv(expr.base)
            else:
                base = self.lv(expr.base)
            return self._offset_addr(base, expr.offset)
        if isinstance(expr, StringLit):
            assert expr.label is not None
            return T("ADDRGP", value=expr.label)
        if isinstance(expr, (ImplicitCast, Cast)):
            # Address of a decayed array is the array's own address.
            assert expr.operand is not None
            return self.lv(expr.operand)
        raise CompileError("expression is not addressable", expr.location)

    # -- expression helpers ----------------------------------------------

    def _symbol_addr(self, sym: Symbol) -> Tree:
        if sym.storage in (Storage.GLOBAL, Storage.FUNCTION):
            return T("ADDRGP", value=sym.name)
        if sym.storage is Storage.PARAM:
            assert sym.frame_offset is not None
            return T("ADDRFP", value=sym.frame_offset)
        if sym.storage is Storage.LOCAL:
            assert sym.frame_offset is not None, sym.name
            return T("ADDRLP", value=sym.frame_offset)
        raise AssertionError(f"unexpected storage {sym.storage}")

    def _local_addr(self, sym: Symbol) -> Tree:
        assert sym.frame_offset is not None
        return T("ADDRLP", value=sym.frame_offset)

    def _offset_addr(self, addr: Tree, offset: int) -> Tree:
        if offset == 0:
            return addr
        return T("ADDP", addr, T("CNSTI", value=offset))

    def _pointer_offset(self, base: Tree, index: Tree, esize: int) -> Tree:
        """``base + index * esize`` as an ADDP tree."""
        if index.op.name == "CNSTI" and isinstance(index.value, int):
            return self._offset_addr(base, index.value * esize)
        scaled = index if esize == 1 else T("MULI", index, T("CNSTI", value=esize))
        return T("ADDP", base, scaled)

    def _load(self, addr: Tree, t: Optional[CType]) -> Tree:
        assert t is not None
        if isinstance(t, (StructType, ArrayType)):
            return addr  # struct/array values are addresses
        suffix = suffix_of(t)
        load = T(f"INDIR{suffix}", addr)
        if suffix == "C":
            assert isinstance(t, IntType)
            return T("CVCI" if t.signed else "CVUCI", load)
        if suffix == "S":
            assert isinstance(t, IntType)
            return T("CVSI" if t.signed else "CVUSI", load)
        return load

    def _lower_nameref(self, expr: NameRef) -> Tree:
        sym = expr.symbol
        assert isinstance(sym, Symbol)
        if sym.storage is Storage.FUNCTION:
            return T("ADDRGP", value=sym.name)
        t = expr.ctype
        if isinstance(t, (ArrayType, StructType)):
            return self._symbol_addr(sym)
        return self._load(self._symbol_addr(sym), t)

    def _lower_unary(self, expr: Unary) -> Tree:
        assert expr.operand is not None
        op = expr.op
        if op == "*":
            return self._load(self.rv(expr.operand), expr.ctype)
        if op == "&":
            return self.lv(expr.operand)
        if op == "!":
            return self.cond_value(expr)
        operand = self.rv(expr.operand)
        t = expr.ctype
        assert t is not None
        if op == "-":
            if isinstance(t, FloatType):
                return T("NEGD", operand)
            if isinstance(t, IntType) and not t.signed:
                return T("SUBU", T("CNSTU", value=0), operand)
            return T("NEGI", operand)
        if op == "~":
            suffix = "U" if isinstance(t, IntType) and not t.signed else "I"
            return T(f"BCOM{suffix}", operand)
        raise AssertionError(f"unhandled unary {op}")

    _ARITH = {"+": "ADD", "-": "SUB", "*": "MUL", "/": "DIV", "%": "MOD",
              "&": "BAND", "|": "BOR", "^": "BXOR", "<<": "LSH", ">>": "RSH"}

    def _lower_binary(self, expr: Binary) -> Tree:
        assert expr.left is not None and expr.right is not None
        op = expr.op
        if op == ",":
            self.effect(expr.left)
            return self.rv(expr.right)
        if op in ("&&", "||") or op in self._CMP_OPS:
            return self.cond_value(expr)
        lt = expr.left.ctype
        rt = expr.right.ctype
        assert lt is not None and rt is not None
        # Pointer arithmetic.
        if op in ("+", "-") and isinstance(lt, PointerType):
            if isinstance(rt, PointerType):
                # ptr - ptr: byte difference divided by the element size.
                left = T("CVPU", self.rv(expr.left))
                right = T("CVPU", self.rv(expr.right))
                diff = T("CVUI", T("SUBU", left, right))
                esize = lt.target.size
                if esize > 1:
                    diff = T("DIVI", diff, T("CNSTI", value=esize))
                return diff
            base = self.rv(expr.left)
            index = self.rv(expr.right)
            esize = lt.target.size
            if op == "+":
                return self._pointer_offset(base, index, esize)
            scaled = (
                index if esize == 1 else T("MULI", index, T("CNSTI", value=esize))
            )
            return T("SUBP", base, scaled)
        # Plain arithmetic on a common type.
        t = expr.ctype
        assert t is not None
        base_name = self._ARITH[op]
        suffix = _value_suffix(t)
        if base_name in ("BAND", "BOR", "BXOR", "MOD", "LSH", "RSH") and suffix == "D":
            raise AssertionError("integer operator on double")
        left = self.rv(expr.left)
        right = self.rv(expr.right)
        if base_name in ("LSH", "RSH"):
            # Shift counts are int regardless of the value type.
            return T(f"{base_name}{suffix}", left, right)
        return T(f"{base_name}{suffix}", left, right)

    def _addr_temp(self, addr: Tree) -> Tree:
        """Ensure an address tree can be reused twice without re-evaluating.

        Leaf addresses are duplicated freely; anything else is spilled to a
        pointer temporary.
        """
        if addr.op.name in ("ADDRLP", "ADDRFP", "ADDRGP"):
            return addr
        temp = self.new_temp(4, 4)
        self.emit(T("ASGNP", T("ADDRLP", value=temp), addr))
        return T("INDIRP", T("ADDRLP", value=temp))

    def _lower_assign(self, expr: Assign, want_value: bool) -> Optional[Tree]:
        assert expr.target is not None and expr.value is not None
        tt = expr.target.ctype
        assert tt is not None
        if isinstance(tt, StructType):
            dst = self.lv(expr.target)
            src = self.rv(expr.value)  # struct value == address
            self.emit(T("ASGNB", dst, src, value=tt.size))
            return self.lv(expr.target) if want_value else None
        addr = self.lv(expr.target)
        if expr.op == "=":
            value = self.rv(expr.value)
            if want_value:
                addr = self._addr_temp(addr)
            self.emit(T(f"ASGN{suffix_of(tt)}", addr, value))
            return self._load(addr, tt) if want_value else None
        # Compound assignment: load, combine at the common type, store.
        addr = self._addr_temp(addr)
        binop = expr.op[:-1]
        value = self.rv(expr.value)
        vt = expr.value.ctype
        assert vt is not None
        if isinstance(tt, PointerType):
            esize = tt.target.size
            loaded = self._load(addr, tt)
            if binop == "+":
                combined = self._pointer_offset(loaded, value, esize)
            else:
                scaled = (
                    value if esize == 1 else T("MULI", value, T("CNSTI", value=esize))
                )
                combined = T("SUBP", loaded, scaled)
            self.emit(T("ASGNP", addr, combined))
            return self._load(addr, tt) if want_value else None
        common = vt  # sema coerced the RHS to the common type
        loaded = _convert_value(self._load(addr, tt), tt, common)
        base_name = self._ARITH[binop]
        suffix = _value_suffix(common)
        combined = T(f"{base_name}{suffix}", loaded, value)
        combined = _convert_value(combined, common, tt)
        self.emit(T(f"ASGN{suffix_of(tt)}", addr, combined))
        return self._load(addr, tt) if want_value else None

    def _lower_incdec(self, expr: IncDec, want_value: bool) -> Optional[Tree]:
        assert expr.operand is not None
        t = expr.ctype
        assert t is not None
        addr = self._addr_temp(self.lv(expr.operand))
        loaded = self._load(addr, t)
        result: Optional[Tree] = None
        if want_value and expr.postfix:
            # Save the old value in a temp.
            size = max(4, t.size)
            temp = self.new_temp(size, size)
            vsuffix = "D" if isinstance(t, FloatType) else (
                "P" if isinstance(t, PointerType) else _value_suffix(t))
            store_suffix = "D" if vsuffix == "D" else ("P" if vsuffix == "P" else
                                                       ("U" if vsuffix == "U" else "I"))
            self.emit(T(f"ASGN{store_suffix}", T("ADDRLP", value=temp), loaded))
            result = T(f"INDIR{store_suffix}", T("ADDRLP", value=temp))
        delta = 1 if expr.op == "++" else -1
        if isinstance(t, PointerType):
            updated = self._offset_addr(loaded, delta * t.target.size)
        elif isinstance(t, FloatType):
            op_name = "ADDD" if delta > 0 else "SUBD"
            updated = T(op_name, loaded, T("CNSTD", value=1.0))
        else:
            assert isinstance(t, IntType)
            common = ct.integer_promote(t)
            widened = _convert_value(loaded, t, common)
            suffix = _value_suffix(common)
            op_name = f"ADD{suffix}" if delta > 0 else f"SUB{suffix}"
            one = T(f"CNST{suffix}", value=1)
            updated = _convert_value(T(op_name, widened, one), common, t)
        self.emit(T(f"ASGN{suffix_of(t)}", addr, updated))
        if not want_value:
            return None
        if expr.postfix:
            return result
        return self._load(addr, t)

    def _lower_conditional_value(self, expr: Conditional) -> Tree:
        assert expr.cond is not None
        assert expr.then is not None and expr.otherwise is not None
        t = expr.ctype
        assert t is not None
        if isinstance(t, VoidType):
            self.effect(expr)
            # A void conditional has no value; callers only reach here via
            # effect(), but return a dummy for safety.
            return T("CNSTI", value=0)
        size = max(4, t.size)
        temp = self.new_temp(size, size)
        taddr = lambda: T("ADDRLP", value=temp)
        suffix = suffix_of(t)
        other = self.new_label()
        end = self.new_label()
        self.cond(expr.cond, other, branch_if_true=False)
        self.emit(T(f"ASGN{suffix}", taddr(), self.rv(expr.then)))
        self.emit_jump(end)
        self.emit_label(other)
        self.emit(T(f"ASGN{suffix}", taddr(), self.rv(expr.otherwise)))
        self.emit_label(end)
        return self._load(taddr(), t)

    def _lower_call(self, expr: Call, want_value: bool) -> Optional[Tree]:
        assert expr.func is not None
        ftype = expr.func.ctype
        if isinstance(ftype, PointerType):
            ftype = ftype.target
        if isinstance(expr.func, ImplicitCast) and isinstance(
            expr.func.operand, NameRef
        ):
            func_addr = self.rv(expr.func.operand)
        else:
            func_addr = self.rv(expr.func)
        assert isinstance(ftype, FunctionType)
        ret = ftype.ret
        if isinstance(ret, StructType):
            raise CompileError("struct-valued returns are not supported",
                               expr.location)
        # Evaluate arguments left to right.  Any argument whose lowering
        # emits trees (inner calls, assignments) is safely ordered because
        # rv() emits into the forest before we emit the ARG trees.
        arg_trees: List[Tuple[str, Tree]] = []
        for arg in expr.args:
            at = arg.ctype
            assert at is not None
            if isinstance(at, StructType):
                raise CompileError("struct-valued arguments are not supported",
                                   arg.location)
            value = self.rv(arg)
            value = _widen(value, at)
            suffix = "D" if isinstance(at, FloatType) else (
                "P" if isinstance(at, PointerType) else _value_suffix(at))
            arg_trees.append((suffix, value))
        for suffix, value in arg_trees:
            self.emit(T(f"ARG{suffix}", value))
        ret_suffix = "V" if isinstance(ret, VoidType) else _value_suffix(ret)
        call = T(f"CALL{ret_suffix}", func_addr)
        if not want_value or ret_suffix == "V":
            self.emit(call)
            if want_value:
                raise CompileError("void value used", expr.location)
            return None
        size = 8 if ret_suffix == "D" else 4
        temp = self.new_temp(size, size)
        self.emit(T(f"ASGN{ret_suffix}", T("ADDRLP", value=temp), call))
        loaded = T(f"INDIR{ret_suffix}", T("ADDRLP", value=temp))
        # Narrow back to the declared return type if it is sub-int.
        assert expr.ctype is not None
        return _convert_value(loaded, _reg_type(ret), expr.ctype)

    def _lower_cast(self, expr: Union[Cast, ImplicitCast]) -> Tree:
        assert expr.operand is not None
        src_t = expr.operand.ctype
        dst_t = expr.ctype
        assert src_t is not None and dst_t is not None
        # Array/function decay: the value is the address.
        if isinstance(src_t, (ArrayType, FunctionType)):
            return self.lv(expr.operand) if not isinstance(expr.operand, NameRef) \
                else self.rv(expr.operand)
        if isinstance(dst_t, VoidType):
            self.effect(expr.operand)
            return T("CNSTI", value=0)
        value = self.rv(expr.operand)
        return _convert_value(value, src_t, dst_t)


def _reg_type(t: CType) -> CType:
    """The type a value of ``t`` has once in a register (promoted)."""
    if isinstance(t, IntType) and t.width < 4:
        return ct.INT if t.signed else ct.INT  # loads normalize to int
    return t


def _widen(tree: Tree, t: CType) -> Tree:
    """Widen a small-int value tree to its register-size representation."""
    if isinstance(t, IntType) and t.width < 4:
        # Loads already normalize via CVCI/CVSI; constants are already
        # register-width.  Nothing further needed: the tree carries an
        # int-sized value by the module invariant.
        return tree
    return tree


def _convert_value(tree: Tree, src: CType, dst: CType) -> Tree:
    """Emit conversion operators turning a ``src``-typed value into ``dst``.

    Works on register-resident values (small ints are already widened),
    mirroring lcc's CV* chains.
    """
    if src == dst:
        return tree
    # Pointer conversions.
    if isinstance(src, PointerType) and isinstance(dst, PointerType):
        return tree
    if isinstance(src, PointerType) and isinstance(dst, IntType):
        tree = T("CVPU", tree)
        return _convert_value(tree, ct.UINT, dst)
    if isinstance(dst, PointerType) and isinstance(src, IntType):
        tree = _convert_value(tree, src, ct.UINT)
        return T("CVUP", tree)
    if isinstance(src, FunctionType) and isinstance(dst, PointerType):
        return tree
    assert ct.is_arithmetic(src) and ct.is_arithmetic(dst), (src, dst)
    # Float <-> int.
    if isinstance(src, FloatType):
        if isinstance(dst, FloatType):
            return tree
        assert isinstance(dst, IntType)
        if dst.signed:
            tree = T("CVDI", tree)
            return _convert_value(tree, ct.INT, dst)
        tree = T("CVDU", tree)
        return _convert_value(tree, ct.UINT, dst)
    if isinstance(dst, FloatType):
        assert isinstance(src, IntType)
        widened, wt = _to_word(tree, src)
        if wt.signed:
            return T("CVID", widened)
        return T("CVUD", widened)
    # Integer to integer.
    assert isinstance(src, IntType) and isinstance(dst, IntType)
    widened, wt = _to_word(tree, src)
    if dst.width == 4:
        if dst.signed and not wt.signed:
            return T("CVUI", widened)
        if not dst.signed and wt.signed:
            return T("CVIU", widened)
        return widened
    # Narrowing: go through int, truncate, renormalize.
    as_int = T("CVUI", widened) if not wt.signed else widened
    trunc = T("CVIC" if dst.width == 1 else "CVIS", as_int)
    # The truncated value is renormalized (sign/zero extended) so the
    # invariant "small ints are carried widened" holds.
    if dst.width == 1:
        norm = T("CVCI" if dst.signed else "CVUCI", trunc)
    else:
        norm = T("CVSI" if dst.signed else "CVUSI", trunc)
    return norm


def _to_word(tree: Tree, src: IntType) -> Tuple[Tree, IntType]:
    """Return the tree as a 4-byte int/uint value plus that type."""
    if src.width == 4:
        return tree, src
    # Module invariant: sub-int values already travel widened & normalized,
    # so only the signedness label changes.
    return tree, (ct.INT if src.signed else ct.UINT)


class ModuleLowerer:
    """Lowers a checked translation unit to an :class:`IRModule`.

    ``reuse`` maps ``id()`` of a function definition to the
    :class:`IRFunction` already lowered from that very object, which the
    module takes instead of lowering it again.
    """

    def __init__(self, unit: TranslationUnit, name: str = "module",
                 reuse: Optional[Dict[int, IRFunction]] = None) -> None:
        self.unit = unit
        self.module = IRModule(name)
        self.reuse = reuse or {}

    def run(self) -> IRModule:
        for label, text in self.unit.strings:
            data = text.encode("latin-1", errors="replace") + b"\0"
            g = GlobalData(label, len(data), 1, is_string=True)
            for i, byte in enumerate(data):
                if byte:
                    g.items.append(ScalarInit(i, 1, byte))
            self.module.globals.append(g)
        for decl in self.unit.globals:
            if decl.is_extern:
                continue
            self.module.globals.append(self._lower_global(decl))
        for fn in self.unit.functions:
            if fn.body is None:
                continue
            lowered = self.reuse.get(id(fn))
            if lowered is None:
                lowered = FunctionLowerer(fn, self).run()
            self.module.functions.append(lowered)
        return self.module

    def _lower_global(self, decl: VarDecl) -> GlobalData:
        g = GlobalData(decl.name, max(1, decl.type.size), max(1, decl.type.align))
        if decl.init is not None:
            self._init_items(decl.type, decl.init, 0, g, decl.location)
        return g

    def _init_items(
        self,
        t: CType,
        init: Union[Initializer, InitList],
        offset: int,
        g: GlobalData,
        loc: Location,
    ) -> None:
        if isinstance(init, Initializer):
            assert init.expr is not None
            if isinstance(t, ArrayType) and isinstance(init.expr, StringLit):
                text = init.expr.value
                for i, char in enumerate(text):
                    if ord(char):
                        g.items.append(ScalarInit(offset + i, 1, ord(char) & 0xFF))
                return
            self._scalar_item(t, init.expr, offset, g, loc)
            return
        if isinstance(t, ArrayType):
            for i, item in enumerate(init.items):
                self._init_items(t.element, item, offset + i * t.element.size, g, loc)
            return
        if isinstance(t, StructType):
            assert t.members is not None
            for member, item in zip(t.members, init.items):
                self._init_items(member.type, item, offset + member.offset, g, loc)
            return
        self._init_items(t, init.items[0], offset, g, loc)

    def _scalar_item(
        self, t: CType, expr: Expr, offset: int, g: GlobalData, loc: Location
    ) -> None:
        value = _const_value(expr)
        if value is None:
            raise CompileError(
                "global initializer must be a constant expression", loc)
        if isinstance(value, str):  # address of a symbol
            g.items.append(PtrInit(offset, value))
            return
        if isinstance(t, FloatType):
            g.items.append(ScalarInit(offset, 8, float(value)))
            return
        size = t.size if isinstance(t, IntType) else 4
        if isinstance(value, float):
            value = int(value)
        g.items.append(ScalarInit(offset, size, int(value) & ((1 << (size * 8)) - 1)))


def _const_value(expr: Expr) -> Union[int, float, str, None]:
    """Evaluate a constant initializer: number, or symbol name for an
    address constant (string label, global array, function)."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, FloatLit):
        return expr.value
    if isinstance(expr, StringLit):
        return expr.label
    if isinstance(expr, (ImplicitCast, Cast)) and expr.operand is not None:
        inner = _const_value(expr.operand)
        if inner is None:
            return None
        if isinstance(expr.ctype, IntType) and isinstance(inner, (int, float)):
            return expr.ctype.wrap(int(inner))
        if isinstance(expr.ctype, FloatType) and isinstance(inner, (int, float)):
            return float(inner)
        return inner
    if isinstance(expr, NameRef) and isinstance(expr.symbol, Symbol):
        sym = expr.symbol
        if sym.storage in (Storage.GLOBAL, Storage.FUNCTION):
            return sym.name
        return None
    if isinstance(expr, Unary) and expr.op == "&" and expr.operand is not None:
        return _const_value(expr.operand)
    if isinstance(expr, Unary) and expr.op == "-" and expr.operand is not None:
        inner = _const_value(expr.operand)
        if isinstance(inner, (int, float)):
            return -inner
        return None
    return None


def lower_unit(unit: TranslationUnit, name: str = "module",
               reuse: Optional[Dict[int, IRFunction]] = None) -> IRModule:
    """Lower a checked translation unit to tree IR, taking the functions
    ``reuse`` holds (see :class:`ModuleLowerer`) as they are."""
    return ModuleLowerer(unit, name, reuse).run()
