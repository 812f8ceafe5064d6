"""Semantic analysis for the C subset.

Resolves names, assigns types to every expression, inserts implicit
conversions, performs array/function decay, folds constant expressions,
lays out struct member accesses, and validates statements (break/continue
placement, return types, switch case labels).  The result is the same AST,
now fully annotated, ready for IR lowering.

Function-local ``static`` variables are hoisted into the global list under
mangled names, matching how lcc treats them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from . import ctypes as ct
from .astnodes import (
    Assign, Binary, Block, Break, Call, Case, Cast, Conditional, Continue,
    DeclStmt, DoWhile, EmptyStmt, Expr, ExprStmt, FloatLit, For, FunctionDef,
    If, ImplicitCast, IncDec, Index, InitList, Initializer, IntLit, Member,
    NameRef, Return, SizeofType, Stmt, StringLit, Switch,
    TranslationUnit, Unary, VarDecl, While,
)
from .ctypes import (
    ArrayType, CType, FloatType, FunctionType, IntType, PointerType,
    StructType, VoidType,
)
from .errors import CompileError, Location
from .symbols import Scope, Storage, Symbol

__all__ = ["analyze", "check_definition", "is_lvalue", "BUILTIN_FUNCTIONS"]

# Functions the VM runtime provides directly (see repro.vm.interp).  They
# are implicitly declared so corpus programs need no headers.
BUILTIN_FUNCTIONS: Dict[str, FunctionType] = {
    "putchar": FunctionType(ct.INT, (ct.INT,)),
    "getchar": FunctionType(ct.INT, ()),
    "malloc": FunctionType(PointerType(ct.VOID), (ct.UINT,)),
    "free": FunctionType(ct.VOID, (PointerType(ct.VOID),)),
    "abort": FunctionType(ct.VOID, ()),
    "exit": FunctionType(ct.VOID, (ct.INT,)),
    "print_int": FunctionType(ct.VOID, (ct.INT,)),
    "print_str": FunctionType(ct.VOID, (PointerType(ct.CHAR),)),
    "print_double": FunctionType(ct.VOID, (ct.DOUBLE,)),
    "clock": FunctionType(ct.INT, ()),
}


def _is_null_constant(expr: Expr) -> bool:
    """An integer constant 0 usable as a null pointer constant."""
    return isinstance(expr, IntLit) and expr.value == 0


def is_lvalue(expr: Expr) -> bool:
    """True when ``expr`` designates a storable object."""
    if isinstance(expr, NameRef):
        sym = expr.symbol
        return isinstance(sym, Symbol) and sym.storage in (
            Storage.GLOBAL, Storage.PARAM, Storage.LOCAL
        )
    if isinstance(expr, Unary) and expr.op == "*":
        return True
    if isinstance(expr, (Index, Member)):
        return True
    if isinstance(expr, StringLit):
        return True
    return False


class _FunctionContext:
    """Per-function checking state."""

    def __init__(self, fn: FunctionDef) -> None:
        self.fn = fn
        assert isinstance(fn.type, FunctionType)
        self.return_type = fn.type.ret
        self.loop_depth = 0
        self.switch_depth = 0
        self.locals: List[Symbol] = []
        self.static_counter = 0


class Analyzer:
    """Single-pass semantic analyzer over a parsed translation unit."""

    def __init__(self, unit: TranslationUnit) -> None:
        self.unit = unit
        self.globals = Scope()
        self.scope = self.globals
        self.ctx: Optional[_FunctionContext] = None
        self._string_labels: Dict[str, str] = {}
        self._hoisted: List[VarDecl] = []

    # -- driver --------------------------------------------------------------

    def run(self) -> TranslationUnit:
        for name, ftype in BUILTIN_FUNCTIONS.items():
            self.globals.declare(
                Symbol(name, ftype, Storage.FUNCTION,
                       Location("<builtin>", 0, 0), defined=True)
            )
        # Pre-declare every function so global initializers may reference
        # functions defined later in the file (source order is not kept
        # between the globals and functions lists).
        for fn in self.unit.functions:
            assert isinstance(fn.type, FunctionType)
            self.globals.declare(
                Symbol(fn.name, fn.type, Storage.FUNCTION, fn.location,
                       defined=fn.body is not None)
            )
        for decl in self.unit.globals:
            self._check_global(decl)
        record = self.unit.record
        definitions = iter(record.definitions if record is not None else ())
        for fn in self.unit.functions:
            if fn.body is None:
                continue
            mark = next(definitions, None)
            symbols, hoisted = len(self.globals.names), len(self._hoisted)
            strings = len(self._string_labels)
            self._check_function(fn)
            if mark is not None:
                mark.symbols, mark.strings = symbols, strings
                mark.declares = mark.declares or (
                    len(self.globals.names) != symbols
                    or len(self._hoisted) != hoisted)
        if record is not None:
            record.symbols = self.globals
        self.unit.globals.extend(self._hoisted)
        return self.unit

    # -- declarations ----------------------------------------------------

    def _check_global(self, decl: VarDecl) -> None:
        if isinstance(decl.type, ArrayType) and decl.type.count is None:
            decl.type = self._sized_from_init(decl.type, decl.init, decl.location)
        self._complete_or_fail(decl.type, decl.location)
        sym = Symbol(decl.name, decl.type, Storage.GLOBAL, decl.location,
                     defined=not decl.is_extern)
        decl.symbol = self.globals.declare(sym)
        if decl.init is not None:
            self._check_initializer(decl.type, decl.init)

    def _check_function(self, fn: FunctionDef) -> None:
        assert isinstance(fn.type, FunctionType)
        # The symbol was declared during the pre-declaration pass in run().
        if fn.body is None:
            return
        ctx = _FunctionContext(fn)
        self.ctx = ctx
        self.scope = Scope(self.globals)
        for param in fn.params:
            if not param.name:
                raise CompileError("parameter needs a name in a definition",
                                   param.location)
            psym = Symbol(param.name, param.type, Storage.PARAM, param.location)
            param.symbol = self.scope.declare(psym)
        self._check_block(fn.body, new_scope=False)
        fn.all_locals = ctx.locals  # type: ignore[attr-defined]
        self.scope = self.globals
        self.ctx = None

    def _complete_or_fail(self, t: CType, loc: Location) -> None:
        if isinstance(t, StructType) and not t.complete:
            raise CompileError(f"'{t}' is incomplete here", loc)
        if isinstance(t, VoidType):
            raise CompileError("cannot declare an object of type void", loc)
        if isinstance(t, ArrayType):
            if t.count is None:
                raise CompileError("array needs a size (or an initializer)", loc)
            self._complete_or_fail(t.element, loc)

    def _declare_local(self, decl: VarDecl) -> None:
        assert self.ctx is not None
        if decl.is_static:
            # Hoist to a mangled global.
            self.ctx.static_counter += 1
            mangled = f"{self.ctx.fn.name}.{decl.name}.{self.ctx.static_counter}"
            sym = Symbol(mangled, decl.type, Storage.GLOBAL, decl.location,
                         defined=True)
            # Visible under its source name in the current scope.
            self.scope.names[decl.name] = sym
            decl.symbol = sym
            hoisted = VarDecl(mangled, decl.type, decl.location, decl.init,
                              is_static=True)
            hoisted.symbol = sym
            if decl.init is not None:
                self._check_initializer(decl.type, decl.init)
                decl.init = None  # initialization happens in the image
            self._hoisted.append(hoisted)
            return
        # Infer array sizes from initializers: int a[] = {1,2,3};
        if isinstance(decl.type, ArrayType) and decl.type.count is None:
            decl.type = self._sized_from_init(decl.type, decl.init, decl.location)
        self._complete_or_fail(decl.type, decl.location)
        sym = Symbol(decl.name, decl.type, Storage.LOCAL, decl.location)
        if decl.name in self.scope.names:
            raise CompileError(f"redeclaration of '{decl.name}'", decl.location)
        self.scope.names[decl.name] = sym
        decl.symbol = sym
        self.ctx.locals.append(sym)
        if decl.init is not None:
            self._check_initializer(decl.type, decl.init)

    def _sized_from_init(
        self, t: ArrayType, init: Optional[Union[Initializer, InitList]],
        loc: Location,
    ) -> ArrayType:
        if isinstance(init, InitList):
            return ArrayType(t.element, len(init.items))
        if isinstance(init, Initializer) and isinstance(init.expr, StringLit):
            return ArrayType(t.element, len(init.expr.value) + 1)
        raise CompileError("array of unknown size needs an initializer list", loc)

    def _check_initializer(
        self, t: CType, init: Union[Initializer, InitList]
    ) -> None:
        if isinstance(init, Initializer):
            assert init.expr is not None
            # char a[...] = "str" initializes the array directly.
            if isinstance(t, ArrayType) and isinstance(init.expr, StringLit):
                init.expr = self._check_expr(init.expr, decay=False)
                if len(init.expr.value) + 1 > (t.count or 0):
                    raise CompileError("string initializer longer than array",
                                       init.location)
                return
            expr = self._check_expr(init.expr)
            assert expr.ctype is not None
            null_ok = isinstance(t, PointerType) and _is_null_constant(expr)
            if not ct.composite_compatible(t, expr.ctype) and not null_ok:
                raise CompileError(
                    f"cannot initialize '{t}' from '{expr.ctype}'", init.location
                )
            init.expr = self._coerce(expr, t)
            return
        # Brace list: arrays element-wise, structs member-wise.
        if isinstance(t, ArrayType):
            count = t.count if t.count is not None else len(init.items)
            if len(init.items) > count:
                raise CompileError("too many initializers for array", init.location)
            for item in init.items:
                self._check_initializer(t.element, item)
            return
        if isinstance(t, StructType):
            if not t.complete or t.members is None:
                raise CompileError(f"cannot initialize incomplete '{t}'",
                                   init.location)
            if len(init.items) > len(t.members):
                raise CompileError("too many initializers for struct",
                                   init.location)
            for member, item in zip(t.members, init.items):
                self._check_initializer(member.type, item)
            return
        if len(init.items) != 1:
            raise CompileError("scalar initializer needs exactly one value",
                               init.location)
        self._check_initializer(t, init.items[0])

    # -- statements --------------------------------------------------------

    def _check_block(self, block: Block, new_scope: bool = True) -> None:
        if new_scope:
            self.scope = Scope(self.scope)
        for stmt in block.body:
            self._check_stmt(stmt)
        if new_scope:
            assert self.scope.parent is not None
            self.scope = self.scope.parent

    def _check_stmt(self, stmt: Stmt) -> None:
        assert self.ctx is not None
        if isinstance(stmt, Block):
            self._check_block(stmt)
        elif isinstance(stmt, ExprStmt):
            assert stmt.expr is not None
            stmt.expr = self._check_expr(stmt.expr)
        elif isinstance(stmt, DeclStmt):
            for decl in stmt.decls:
                self._declare_local(decl)
        elif isinstance(stmt, If):
            stmt.cond = self._check_condition(stmt.cond)
            assert stmt.then is not None
            self._check_stmt(stmt.then)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise)
        elif isinstance(stmt, While):
            stmt.cond = self._check_condition(stmt.cond)
            self._in_loop(stmt.body)
        elif isinstance(stmt, DoWhile):
            self._in_loop(stmt.body)
            stmt.cond = self._check_condition(stmt.cond)
        elif isinstance(stmt, For):
            self.scope = Scope(self.scope)
            if isinstance(stmt.init, DeclStmt):
                for decl in stmt.init.decls:
                    self._declare_local(decl)
            elif isinstance(stmt.init, Expr):
                stmt.init = self._check_expr(stmt.init)
            if stmt.cond is not None:
                stmt.cond = self._check_condition(stmt.cond)
            if stmt.step is not None:
                stmt.step = self._check_expr(stmt.step)
            self._in_loop(stmt.body)
            assert self.scope.parent is not None
            self.scope = self.scope.parent
        elif isinstance(stmt, Return):
            ret = self.ctx.return_type
            if stmt.value is None:
                if not isinstance(ret, VoidType):
                    raise CompileError(
                        f"non-void function must return a value", stmt.location
                    )
            else:
                if isinstance(ret, VoidType):
                    raise CompileError("void function cannot return a value",
                                       stmt.location)
                value = self._check_expr(stmt.value)
                assert value.ctype is not None
                null_ok = (isinstance(ret, PointerType)
                           and _is_null_constant(value))
                if not ct.composite_compatible(ret, value.ctype) and not null_ok:
                    raise CompileError(
                        f"cannot return '{value.ctype}' from a function "
                        f"returning '{ret}'", stmt.location)
                stmt.value = self._coerce(value, ret)
        elif isinstance(stmt, Break):
            if self.ctx.loop_depth == 0 and self.ctx.switch_depth == 0:
                raise CompileError("break outside loop or switch", stmt.location)
        elif isinstance(stmt, Continue):
            if self.ctx.loop_depth == 0:
                raise CompileError("continue outside loop", stmt.location)
        elif isinstance(stmt, Switch):
            self._check_switch(stmt)
        elif isinstance(stmt, Case):
            raise CompileError("case label outside switch", stmt.location)
        elif isinstance(stmt, EmptyStmt):
            pass
        else:  # pragma: no cover
            raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    def _in_loop(self, body: Optional[Stmt]) -> None:
        assert self.ctx is not None and body is not None
        self.ctx.loop_depth += 1
        self._check_stmt(body)
        self.ctx.loop_depth -= 1

    def _check_condition(self, cond: Optional[Expr]) -> Expr:
        assert cond is not None
        expr = self._check_expr(cond)
        assert expr.ctype is not None
        if not ct.is_scalar(expr.ctype):
            raise CompileError(
                f"condition must be scalar, got '{expr.ctype}'", expr.location
            )
        return expr

    def _check_switch(self, stmt: Switch) -> None:
        assert self.ctx is not None and stmt.body is not None
        scrutinee = self._check_expr(stmt.scrutinee)
        assert scrutinee.ctype is not None
        if not ct.is_integer(scrutinee.ctype):
            raise CompileError("switch expression must be an integer",
                               scrutinee.location)
        stmt.scrutinee = self._coerce(scrutinee, ct.integer_promote(scrutinee.ctype))
        # The body is usually a Block whose items include Case labels.
        self.ctx.switch_depth += 1
        seen: Set[Optional[int]] = set()
        if isinstance(stmt.body, Block):
            self.scope = Scope(self.scope)
            for item in stmt.body.body:
                if isinstance(item, Case):
                    self._check_case(item, seen)
                else:
                    self._check_stmt(item)
            assert self.scope.parent is not None
            self.scope = self.scope.parent
        elif isinstance(stmt.body, Case):
            self._check_case(stmt.body, seen)
        else:
            self._check_stmt(stmt.body)
        self.ctx.switch_depth -= 1

    def _check_case(self, case: Case, seen: Set[Optional[int]]) -> None:
        if case.value is not None:
            expr = self._check_expr(case.value)
            value = self._const_int(expr)
            if value is None:
                raise CompileError("case label must be a constant", case.location)
            case.const_value = value
        else:
            case.const_value = None
        key = case.const_value
        if key in seen:
            label = "default" if key is None else str(key)
            raise CompileError(f"duplicate case label {label}", case.location)
        seen.add(key)
        assert case.body is not None
        self._check_stmt(case.body)

    # -- expressions -------------------------------------------------------

    def _check_expr(self, expr: Expr, decay: bool = True) -> Expr:
        """Type-check ``expr``; returns the (possibly rewritten) node."""
        result = self._check_expr_inner(expr)
        assert result.ctype is not None, type(expr).__name__
        if decay:
            result = self._decay(result)
        return result

    def _decay(self, expr: Expr) -> Expr:
        """Array-to-pointer and function-to-pointer decay."""
        t = expr.ctype
        if isinstance(t, ArrayType):
            cast = ImplicitCast(expr.location, expr)
            cast.ctype = PointerType(t.element)
            return cast
        if isinstance(t, FunctionType):
            cast = ImplicitCast(expr.location, expr)
            cast.ctype = PointerType(t)
            return cast
        return expr

    def _coerce(self, expr: Expr, target: CType) -> Expr:
        """Insert an implicit conversion to ``target`` when types differ."""
        assert expr.ctype is not None
        if expr.ctype == target:
            return expr
        cast = ImplicitCast(expr.location, expr)
        cast.ctype = target
        return cast

    def _check_expr_inner(self, expr: Expr) -> Expr:
        if isinstance(expr, IntLit):
            expr.ctype = ct.INT
            return expr
        if isinstance(expr, FloatLit):
            expr.ctype = ct.DOUBLE
            return expr
        if isinstance(expr, StringLit):
            return self._check_string(expr)
        if isinstance(expr, NameRef):
            return self._check_name(expr)
        if isinstance(expr, Unary):
            return self._check_unary(expr)
        if isinstance(expr, Binary):
            return self._check_binary(expr)
        if isinstance(expr, Assign):
            return self._check_assign(expr)
        if isinstance(expr, Conditional):
            return self._check_conditional(expr)
        if isinstance(expr, Call):
            return self._check_call(expr)
        if isinstance(expr, Index):
            return self._check_index(expr)
        if isinstance(expr, Member):
            return self._check_member(expr)
        if isinstance(expr, Cast):
            return self._check_cast(expr)
        if isinstance(expr, SizeofType):
            assert expr.target is not None
            lit = IntLit(expr.location, expr.target.size)
            lit.ctype = ct.UINT
            return lit
        if isinstance(expr, IncDec):
            return self._check_incdec(expr)
        raise AssertionError(f"unhandled expression {type(expr).__name__}")

    def _check_string(self, expr: StringLit) -> StringLit:
        label = self._string_labels.get(expr.value)
        if label is None:
            label = f"<str{len(self._string_labels)}>"
            self._string_labels[expr.value] = label
            self.unit.strings.append((label, expr.value))
        expr.label = label
        expr.ctype = ArrayType(ct.CHAR, len(expr.value) + 1)
        return expr

    def _check_name(self, expr: NameRef) -> Expr:
        sym = self.scope.lookup(expr.name)
        if sym is None:
            raise CompileError(f"undeclared identifier '{expr.name}'",
                               expr.location)
        if sym.storage is Storage.ENUM_CONST:
            lit = IntLit(expr.location, sym.enum_value)
            lit.ctype = ct.INT
            return lit
        if sym.storage is Storage.TYPEDEF:
            raise CompileError(f"'{expr.name}' is a type name here",
                               expr.location)
        expr.symbol = sym
        expr.ctype = sym.type
        return expr

    def _check_unary(self, expr: Unary) -> Expr:
        assert expr.operand is not None
        op = expr.op
        if op == "sizeof":
            operand = self._check_expr(expr.operand, decay=False)
            assert operand.ctype is not None
            lit = IntLit(expr.location, operand.ctype.size)
            lit.ctype = ct.UINT
            return lit
        if op == "&":
            operand = self._check_expr(expr.operand, decay=False)
            assert operand.ctype is not None
            if isinstance(operand.ctype, FunctionType):
                cast = ImplicitCast(expr.location, operand)
                cast.ctype = PointerType(operand.ctype)
                return cast
            if not is_lvalue(operand) and not isinstance(operand.ctype, ArrayType):
                raise CompileError("cannot take the address of this expression",
                                   expr.location)
            expr.operand = operand
            target = operand.ctype
            if isinstance(target, ArrayType):
                target = target  # &array has type element(*)[n]; simplified: array*
            expr.ctype = PointerType(
                target.element if isinstance(target, ArrayType) else target
            )
            return expr
        operand = self._check_expr(expr.operand)
        t = operand.ctype
        assert t is not None
        expr.operand = operand
        if op == "*":
            if not isinstance(t, PointerType):
                raise CompileError(f"cannot dereference '{t}'", expr.location)
            if isinstance(t.target, VoidType):
                raise CompileError("cannot dereference void*", expr.location)
            expr.ctype = t.target
            return expr
        if op in ("-", "+"):
            if not ct.is_arithmetic(t):
                raise CompileError(f"unary {op} needs an arithmetic operand",
                                   expr.location)
            promoted = ct.integer_promote(t)
            expr.operand = self._coerce(operand, promoted)
            expr.ctype = promoted
            if op == "+":
                return expr.operand  # unary plus is a no-op
            folded = self._fold_unary(expr)
            return folded if folded is not None else expr
        if op == "~":
            if not ct.is_integer(t):
                raise CompileError("~ needs an integer operand", expr.location)
            promoted = ct.integer_promote(t)
            expr.operand = self._coerce(operand, promoted)
            expr.ctype = promoted
            folded = self._fold_unary(expr)
            return folded if folded is not None else expr
        if op == "!":
            if not ct.is_scalar(t):
                raise CompileError("! needs a scalar operand", expr.location)
            expr.ctype = ct.INT
            folded = self._fold_unary(expr)
            return folded if folded is not None else expr
        raise AssertionError(f"unhandled unary operator {op}")

    def _fold_unary(self, expr: Unary) -> Optional[Expr]:
        operand = expr.operand
        if isinstance(operand, IntLit):
            assert isinstance(expr.ctype, (IntType,)) or expr.op == "!"
            if expr.op == "-":
                value = -operand.value
            elif expr.op == "~":
                value = ~operand.value
            elif expr.op == "!":
                value = int(not operand.value)
            else:
                return None
            t = expr.ctype if isinstance(expr.ctype, IntType) else ct.INT
            lit = IntLit(expr.location, t.wrap(value))
            lit.ctype = expr.ctype
            return lit
        if isinstance(operand, FloatLit) and expr.op == "-":
            lit = FloatLit(expr.location, -operand.value)
            lit.ctype = ct.DOUBLE
            return lit
        return None

    def _check_binary(self, expr: Binary) -> Expr:
        assert expr.left is not None and expr.right is not None
        op = expr.op
        if op == ",":
            expr.left = self._check_expr(expr.left)
            expr.right = self._check_expr(expr.right)
            expr.ctype = expr.right.ctype
            return expr
        if op in ("&&", "||"):
            left = self._check_expr(expr.left)
            right = self._check_expr(expr.right)
            for side in (left, right):
                assert side.ctype is not None
                if not ct.is_scalar(side.ctype):
                    raise CompileError(
                        f"'{op}' needs scalar operands", side.location)
            expr.left, expr.right = left, right
            expr.ctype = ct.INT
            return expr
        left = self._check_expr(expr.left)
        right = self._check_expr(expr.right)
        lt, rt = left.ctype, right.ctype
        assert lt is not None and rt is not None

        if op in ("+", "-"):
            result = self._check_additive(expr, left, right, lt, rt, op)
            if result is not None:
                return result
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return self._check_comparison(expr, left, right, lt, rt)

        # Remaining operators are purely arithmetic/integer.
        if op in ("*", "/", "+", "-"):
            if not (ct.is_arithmetic(lt) and ct.is_arithmetic(rt)):
                raise CompileError(f"'{op}' needs arithmetic operands",
                                   expr.location)
        else:  # % << >> & | ^
            if not (ct.is_integer(lt) and ct.is_integer(rt)):
                raise CompileError(f"'{op}' needs integer operands",
                                   expr.location)
        if op in ("<<", ">>"):
            common = ct.integer_promote(lt)
            expr.left = self._coerce(left, common)
            expr.right = self._coerce(right, ct.INT)
        else:
            common = ct.usual_arithmetic(lt, rt)
            expr.left = self._coerce(left, common)
            expr.right = self._coerce(right, common)
        expr.ctype = common
        folded = self._fold_binary(expr)
        return folded if folded is not None else expr

    def _check_additive(
        self, expr: Binary, left: Expr, right: Expr,
        lt: CType, rt: CType, op: str,
    ) -> Optional[Expr]:
        """Handle pointer arithmetic; returns None for the pure-arith case."""
        if isinstance(lt, PointerType) and ct.is_integer(rt):
            expr.left = left
            expr.right = self._coerce(right, ct.INT)
            expr.ctype = lt
            return expr
        if op == "+" and ct.is_integer(lt) and isinstance(rt, PointerType):
            # Normalize int + ptr to ptr + int.
            expr.left = right
            expr.right = self._coerce(left, ct.INT)
            expr.ctype = rt
            return expr
        if op == "-" and isinstance(lt, PointerType) and isinstance(rt, PointerType):
            if lt.target != rt.target:
                raise CompileError("pointer subtraction needs matching types",
                                   expr.location)
            expr.left, expr.right = left, right
            expr.ctype = ct.INT
            return expr
        if not (ct.is_arithmetic(lt) and ct.is_arithmetic(rt)):
            raise CompileError(f"invalid operands to '{op}' ({lt} and {rt})",
                               expr.location)
        return None

    def _check_comparison(
        self, expr: Binary, left: Expr, right: Expr, lt: CType, rt: CType
    ) -> Expr:
        if isinstance(lt, PointerType) or isinstance(rt, PointerType):
            ok = (
                (isinstance(lt, PointerType) and isinstance(rt, PointerType))
                or (isinstance(lt, PointerType) and isinstance(right, IntLit)
                    and right.value == 0)
                or (isinstance(rt, PointerType) and isinstance(left, IntLit)
                    and left.value == 0)
            )
            if not ok:
                raise CompileError("invalid pointer comparison", expr.location)
            target = lt if isinstance(lt, PointerType) else rt
            expr.left = self._coerce(left, target)
            expr.right = self._coerce(right, target)
        else:
            if not (ct.is_arithmetic(lt) and ct.is_arithmetic(rt)):
                raise CompileError("comparison needs arithmetic or pointer operands",
                                   expr.location)
            common = ct.usual_arithmetic(lt, rt)
            expr.left = self._coerce(left, common)
            expr.right = self._coerce(right, common)
        expr.ctype = ct.INT
        folded = self._fold_binary(expr)
        return folded if folded is not None else expr

    def _fold_binary(self, expr: Binary) -> Optional[Expr]:
        left, right = expr.left, expr.right
        if not isinstance(left, IntLit) or not isinstance(right, IntLit):
            return None
        a, b = left.value, right.value
        try:
            op = expr.op
            if op == "+":
                value = a + b
            elif op == "-":
                value = a - b
            elif op == "*":
                value = a * b
            elif op == "/":
                value = _truncdiv(a, b)
            elif op == "%":
                value = a - _truncdiv(a, b) * b
            elif op == "&":
                value = a & b
            elif op == "|":
                value = a | b
            elif op == "^":
                value = a ^ b
            elif op == "<<":
                value = a << (b & 31)
            elif op == ">>":
                value = a >> (b & 31)
            elif op == "==":
                value = int(a == b)
            elif op == "!=":
                value = int(a != b)
            elif op == "<":
                value = int(a < b)
            elif op == ">":
                value = int(a > b)
            elif op == "<=":
                value = int(a <= b)
            elif op == ">=":
                value = int(a >= b)
            else:
                return None
        except ZeroDivisionError:
            return None  # leave it for runtime, as lcc does
        t = expr.ctype if isinstance(expr.ctype, IntType) else ct.INT
        lit = IntLit(expr.location, t.wrap(value))
        lit.ctype = expr.ctype
        return lit

    def _check_assign(self, expr: Assign) -> Expr:
        assert expr.target is not None and expr.value is not None
        target = self._check_expr(expr.target, decay=False)
        if not is_lvalue(target):
            raise CompileError("assignment target is not an lvalue",
                               expr.location)
        tt = target.ctype
        assert tt is not None
        if isinstance(tt, ArrayType):
            raise CompileError("cannot assign to an array", expr.location)
        if expr.op == "=":
            value = self._check_expr(expr.value)
            assert value.ctype is not None
            if isinstance(tt, StructType):
                if value.ctype != tt:
                    raise CompileError("struct assignment needs matching types",
                                       expr.location)
                expr.target, expr.value = target, value
                expr.ctype = tt
                return expr
            null_ok = isinstance(tt, PointerType) and _is_null_constant(value)
            if not ct.composite_compatible(tt, value.ctype) and not null_ok:
                raise CompileError(
                    f"cannot assign '{value.ctype}' to '{tt}'", expr.location)
            expr.target = target
            expr.value = self._coerce(value, tt)
            expr.ctype = tt
            return expr
        # Compound assignment: type-check as target op value, then store.
        binop = expr.op[:-1]
        value = self._check_expr(expr.value)
        assert value.ctype is not None
        if binop in ("+", "-") and isinstance(tt, PointerType):
            if not ct.is_integer(value.ctype):
                raise CompileError("pointer += needs an integer", expr.location)
            expr.value = self._coerce(value, ct.INT)
        else:
            if not (ct.is_arithmetic(tt) and ct.is_arithmetic(value.ctype)):
                if not (ct.is_integer(tt) and ct.is_integer(value.ctype)):
                    raise CompileError(
                        f"invalid compound assignment to '{tt}'", expr.location)
            common = ct.usual_arithmetic(tt, value.ctype)
            expr.value = self._coerce(value, common)
        expr.target = target
        expr.ctype = tt
        return expr

    def _check_conditional(self, expr: Conditional) -> Expr:
        assert expr.cond and expr.then is not None and expr.otherwise is not None
        expr.cond = self._check_condition(expr.cond)
        then = self._check_expr(expr.then)
        otherwise = self._check_expr(expr.otherwise)
        tt, ot = then.ctype, otherwise.ctype
        assert tt is not None and ot is not None
        if ct.is_arithmetic(tt) and ct.is_arithmetic(ot):
            common: CType = ct.usual_arithmetic(tt, ot)
        elif isinstance(tt, PointerType) and isinstance(ot, PointerType):
            common = tt if not isinstance(tt.target, VoidType) else ot
        elif isinstance(tt, PointerType) and isinstance(otherwise, IntLit) \
                and otherwise.value == 0:
            common = tt
        elif isinstance(ot, PointerType) and isinstance(then, IntLit) \
                and then.value == 0:
            common = ot
        elif tt == ot:
            common = tt
        else:
            raise CompileError(
                f"incompatible conditional arms ('{tt}' and '{ot}')",
                expr.location)
        expr.then = self._coerce(then, common)
        expr.otherwise = self._coerce(otherwise, common)
        expr.ctype = common
        return expr

    def _check_call(self, expr: Call) -> Expr:
        assert expr.func is not None
        # C89 implicit declaration: calling an unknown name declares it as
        # an int-returning variadic function (the paper's sample code does
        # exactly this with `pepper`).
        if isinstance(expr.func, NameRef) and self.scope.lookup(expr.func.name) is None:
            implicit = FunctionType(ct.INT, (), variadic=True)
            self.globals.declare(
                Symbol(expr.func.name, implicit, Storage.FUNCTION,
                       expr.func.location)
            )
        func = self._check_expr(expr.func, decay=False)
        ftype = func.ctype
        assert ftype is not None
        if isinstance(ftype, PointerType) and isinstance(ftype.target, FunctionType):
            ftype = ftype.target
        elif isinstance(func, ImplicitCast) and isinstance(func.operand, Expr):
            pass
        if not isinstance(ftype, FunctionType):
            raise CompileError(f"called object has type '{func.ctype}', "
                               "not a function", expr.location)
        params = ftype.params
        if ftype.variadic:
            if len(expr.args) < len(params):
                raise CompileError("too few arguments", expr.location)
        elif len(expr.args) != len(params):
            raise CompileError(
                f"expected {len(params)} arguments, got {len(expr.args)}",
                expr.location)
        new_args: List[Expr] = []
        for i, arg in enumerate(expr.args):
            checked = self._check_expr(arg)
            assert checked.ctype is not None
            if i < len(params):
                null_ok = (isinstance(params[i], PointerType)
                           and _is_null_constant(checked))
                if not ct.composite_compatible(params[i], checked.ctype) \
                        and not null_ok:
                    raise CompileError(
                        f"argument {i + 1}: cannot pass '{checked.ctype}' "
                        f"as '{params[i]}'", checked.location)
                checked = self._coerce(checked, params[i])
            else:
                # Variadic default promotions.
                if isinstance(checked.ctype, IntType):
                    checked = self._coerce(checked, ct.integer_promote(checked.ctype))
            new_args.append(checked)
        expr.func = func
        expr.args = new_args
        expr.ctype = ftype.ret
        return expr

    def _check_index(self, expr: Index) -> Expr:
        assert expr.base is not None and expr.index is not None
        base = self._check_expr(expr.base)
        index = self._check_expr(expr.index)
        bt, it = base.ctype, index.ctype
        assert bt is not None and it is not None
        if ct.is_integer(bt) and isinstance(it, PointerType):
            base, index = index, base
            bt, it = it, bt
        if not isinstance(bt, PointerType):
            raise CompileError(f"cannot index '{bt}'", expr.location)
        if not ct.is_integer(it):
            raise CompileError("array index must be an integer", expr.location)
        expr.base = base
        expr.index = self._coerce(index, ct.INT)
        expr.ctype = bt.target
        return expr

    def _check_member(self, expr: Member) -> Expr:
        assert expr.base is not None
        base = self._check_expr(expr.base, decay=not expr.arrow)
        bt = base.ctype
        assert bt is not None
        if expr.arrow:
            if not isinstance(bt, PointerType) or not isinstance(bt.target, StructType):
                raise CompileError(f"'->' needs a struct pointer, got '{bt}'",
                                   expr.location)
            struct = bt.target
        else:
            if not isinstance(bt, StructType):
                raise CompileError(f"'.' needs a struct, got '{bt}'",
                                   expr.location)
            struct = bt
        member = struct.member(expr.name)
        if member is None:
            raise CompileError(f"'{struct}' has no member '{expr.name}'",
                               expr.location)
        expr.base = base
        expr.offset = member.offset
        expr.ctype = member.type
        return expr

    def _check_cast(self, expr: Cast) -> Expr:
        assert expr.target is not None and expr.operand is not None
        operand = self._check_expr(expr.operand)
        src = operand.ctype
        assert src is not None
        dst = expr.target
        if isinstance(dst, VoidType):
            expr.operand = operand
            expr.ctype = dst
            return expr
        if not ct.is_scalar(dst) or not ct.is_scalar(src):
            raise CompileError(f"cannot cast '{src}' to '{dst}'", expr.location)
        if isinstance(dst, PointerType) and isinstance(src, FloatType):
            raise CompileError("cannot cast floating type to pointer",
                               expr.location)
        if isinstance(src, PointerType) and isinstance(dst, FloatType):
            raise CompileError("cannot cast pointer to floating type",
                               expr.location)
        expr.operand = operand
        expr.ctype = dst
        return expr

    def _check_incdec(self, expr: IncDec) -> Expr:
        assert expr.operand is not None
        operand = self._check_expr(expr.operand, decay=False)
        if not is_lvalue(operand):
            raise CompileError(f"{expr.op} needs an lvalue", expr.location)
        t = operand.ctype
        assert t is not None
        if not ct.is_scalar(t):
            raise CompileError(f"{expr.op} needs a scalar operand",
                               expr.location)
        expr.operand = operand
        expr.ctype = t
        return expr

    def _const_int(self, expr: Expr) -> Optional[int]:
        """Constant value of an already-checked expression, if known."""
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, ImplicitCast) and isinstance(expr.operand, IntLit):
            if isinstance(expr.ctype, IntType):
                return expr.ctype.wrap(expr.operand.value)
            return expr.operand.value
        return None


def _truncdiv(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def analyze(unit: TranslationUnit) -> TranslationUnit:
    """Run semantic analysis over a parsed unit (mutates and returns it)."""
    return Analyzer(unit).run()


def check_definition(fn: FunctionDef, symbols: Scope,
                     strings: List[Tuple[str, str]]) -> List[Tuple[str, str]]:
    """Check one parsed function definition (mutating it) against
    ``symbols``, sema's global scope as it stood before the definition,
    and ``strings``, the ``(label, text)`` pairs interned before it.
    Returns the pairs it interns.  Raises :class:`CompileError` when the
    definition declares a function implicitly (``symbols`` would grow)
    or holds a static local (the unit's globals would)."""
    analyzer = Analyzer(TranslationUnit())
    analyzer.globals = analyzer.scope = symbols
    analyzer._string_labels = {text: label for label, text in strings}
    count = len(symbols.names)
    analyzer._check_function(fn)
    if analyzer._hoisted or len(symbols.names) != count:
        raise CompileError("a re-checked definition may not declare "
                           "globals", fn.location)
    return analyzer.unit.strings
