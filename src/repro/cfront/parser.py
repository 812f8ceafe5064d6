"""Recursive-descent parser for the C subset.

Produces the untyped AST of :mod:`repro.cfront.astnodes`.  The grammar is
classic C89 minus the preprocessor, bitfields, and old-style (K&R)
definitions; typedefs, structs, unions, enums, multi-dimensional arrays,
function pointers and initializer lists are supported.

Type names are resolved during parsing (the classic typedef ambiguity), so
the parser owns a scope stack mirroring the one sema rebuilds; only
typedef names and struct tags are recorded here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from . import ctypes as ct
from .astnodes import (
    Assign, Binary, Block, Break, Call, Case, Cast, Conditional, Continue,
    DeclStmt, Declarator, Definition, DoWhile, EmptyStmt, Expr, ExprStmt,
    FloatLit, For, FrontEndRecord, FunctionDef, If, IncDec, Index, InitList,
    Initializer, IntLit, Member, NameRef, ParamDecl, Return, SizeofType, Stmt,
    StringLit, Switch, TranslationUnit, Unary, VarDecl, While,
)
from .ctypes import (
    ArrayType, CType, FunctionType, PointerType, StructMember, StructType,
)
from .errors import CompileError
from .lexer import tokenize
from .symbols import Scope, Storage, Symbol
from .tokens import Token, TokenKind as TK

__all__ = ["Parser", "parse", "parse_definition"]

_TYPE_STARTERS = {
    TK.KW_VOID, TK.KW_CHAR, TK.KW_SHORT, TK.KW_INT, TK.KW_LONG,
    TK.KW_FLOAT, TK.KW_DOUBLE, TK.KW_SIGNED, TK.KW_UNSIGNED,
    TK.KW_STRUCT, TK.KW_UNION, TK.KW_ENUM, TK.KW_CONST,
}

_ASSIGN_OPS = {
    TK.ASSIGN: "=", TK.PLUS_ASSIGN: "+=", TK.MINUS_ASSIGN: "-=",
    TK.STAR_ASSIGN: "*=", TK.SLASH_ASSIGN: "/=", TK.PERCENT_ASSIGN: "%=",
    TK.AMP_ASSIGN: "&=", TK.PIPE_ASSIGN: "|=", TK.CARET_ASSIGN: "^=",
    TK.LSHIFT_ASSIGN: "<<=", TK.RSHIFT_ASSIGN: ">>=",
}

# Binary operators -> (precedence, spelling); a higher precedence binds
# tighter.  Every binary operator is left-associative.
_BINARY_OPS: Dict[TK, Tuple[int, str]] = {
    TK.PIPEPIPE: (1, "||"),
    TK.AMPAMP: (2, "&&"),
    TK.PIPE: (3, "|"),
    TK.CARET: (4, "^"),
    TK.AMP: (5, "&"),
    TK.EQ: (6, "=="), TK.NE: (6, "!="),
    TK.LT: (7, "<"), TK.GT: (7, ">"), TK.LE: (7, "<="), TK.GE: (7, ">="),
    TK.LSHIFT: (8, "<<"), TK.RSHIFT: (8, ">>"),
    TK.PLUS: (9, "+"), TK.MINUS: (9, "-"),
    TK.STAR: (10, "*"), TK.SLASH: (10, "/"), TK.PERCENT: (10, "%"),
}

#: Nesting limits.  C99 5.2.4.1 asks for at least 63 levels of
#: parenthesized expressions and 127 levels of blocks.  Parentheses, call
#: argument lists and subscripts count as expression nesting; a statement
#: inside another counts as statement nesting, so each ``else if`` arm
#: nests one level deeper.  Each level costs the recursive-descent parser
#: (and, for statements, the later stages) a few Python frames: the
#: limits sit below the depths at which a compile on a fresh thread's
#: stack runs out (about 120 parentheses, 485 statements), leaving room
#: for the caller's own frames.
MAX_EXPRESSION_NESTING = 63
MAX_STATEMENT_NESTING = 400


class Parser:
    """Parses a token stream into a :class:`TranslationUnit`."""

    def __init__(self, tokens: List[Token],
                 scope: Optional[Scope] = None) -> None:
        self.tokens = tokens
        self.pos = 0
        # Typedef names + struct tags + enum constants.
        self.scope = Scope() if scope is None else scope
        self.unit = TranslationUnit()
        self.definitions: List[Definition] = []
        self.declarations = 0  # changes to the scope, tag definitions
        self._anon_tag = 0
        self._expression_depth = 0
        self._statement_depth = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def _at(self, kind: TK) -> bool:
        return self._peek().kind is kind

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TK.EOF:
            self.pos += 1
        return tok

    def _accept(self, kind: TK) -> Optional[Token]:
        if self._at(kind):
            return self._advance()
        return None

    def _expect(self, kind: TK) -> Token:
        if not self._at(kind):
            raise CompileError(
                f"expected '{kind.value}', found {self._peek()!r}",
                self._peek().location,
            )
        return self._advance()

    def _error(self, message: str) -> CompileError:
        return CompileError(message, self._peek().location)

    def _declare(self) -> None:
        """Count one change to the top-level scope, made next: a name or
        tag declared, or a tag's members defined."""
        self.declarations += 1

    def _open_bracket(self, tok: Token) -> None:
        """Enter one level of expression nesting at ``tok``."""
        self._expression_depth += 1
        if self._expression_depth > MAX_EXPRESSION_NESTING:
            raise CompileError(
                f"expression nests too deeply (more than "
                f"{MAX_EXPRESSION_NESTING} nested parentheses or brackets)",
                tok.location)

    # -- entry point -----------------------------------------------------

    def parse_unit(self) -> TranslationUnit:
        """Parse the whole translation unit."""
        while not self._at(TK.EOF):
            self._external_declaration()
        self.unit.record = FrontEndRecord(self.scope, self.definitions)
        return self.unit

    # -- type parsing ------------------------------------------------------

    def _starts_type(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        if tok.kind in _TYPE_STARTERS:
            return True
        if tok.kind is TK.IDENT:
            sym = self.scope.lookup(tok.text)
            return sym is not None and sym.storage is Storage.TYPEDEF
        return False

    def _parse_base_type(self) -> CType:
        """Parse declaration specifiers (minus storage class) into a type."""
        while self._accept(TK.KW_CONST):
            pass
        tok = self._peek()
        if tok.kind is TK.KW_STRUCT or tok.kind is TK.KW_UNION:
            result: CType = self._parse_struct(tok.kind is TK.KW_UNION)
        elif tok.kind is TK.KW_ENUM:
            result = self._parse_enum()
        elif tok.kind is TK.IDENT:
            sym = self.scope.lookup(tok.text)
            if sym is None or sym.storage is not Storage.TYPEDEF:
                raise self._error(f"unknown type name '{tok.text}'")
            self._advance()
            result = sym.type
        else:
            result = self._parse_builtin_type()
        while self._accept(TK.KW_CONST):
            pass
        return result

    def _parse_builtin_type(self) -> CType:
        """Combine primitive type keywords (e.g. ``unsigned long``)."""
        signedness: Optional[bool] = None
        base: Optional[str] = None
        longs = 0
        seen_any = False
        while True:
            k = self._peek().kind
            if k is TK.KW_SIGNED:
                signedness = True
            elif k is TK.KW_UNSIGNED:
                signedness = False
            elif k is TK.KW_VOID:
                base = "void"
            elif k is TK.KW_CHAR:
                base = "char"
            elif k is TK.KW_SHORT:
                base = "short"
            elif k is TK.KW_INT:
                base = base or "int"
            elif k is TK.KW_LONG:
                longs += 1
            elif k is TK.KW_FLOAT or k is TK.KW_DOUBLE:
                base = "double"
            elif k is TK.KW_CONST:
                pass
            else:
                break
            seen_any = True
            self._advance()
        if not seen_any:
            raise self._error("expected a type")
        if base == "void":
            return ct.VOID
        if base == "double":
            return ct.DOUBLE
        if base == "char":
            if signedness is False:
                return ct.UCHAR
            return ct.CHAR
        if base == "short":
            return ct.USHORT if signedness is False else ct.SHORT
        if longs:
            return ct.ULONG if signedness is False else ct.LONG
        return ct.UINT if signedness is False else ct.INT

    def _parse_struct(self, is_union: bool) -> StructType:
        self._advance()  # struct/union
        tag_tok = self._accept(TK.IDENT)
        if tag_tok is None and not self._at(TK.LBRACE):
            raise self._error("struct requires a tag or a definition")
        if tag_tok is not None:
            tag = tag_tok.text
        else:
            self._anon_tag += 1
            tag = f"<anon{self._anon_tag}>"
        has_body = self._at(TK.LBRACE)
        struct = self.scope.lookup_tag(tag, here_only=has_body) if tag_tok else None
        if struct is None and tag_tok is not None and not has_body:
            struct = self.scope.lookup_tag(tag)
        if struct is None:
            struct = StructType(tag, is_union)
            self._declare()
            self.scope.declare_tag(tag, struct)
        if has_body:
            if struct.complete:
                raise self._error(f"redefinition of '{struct}'")
            self._declare()
            self._advance()  # {
            members: List[StructMember] = []
            while not self._at(TK.RBRACE):
                base = self._parse_base_type()
                while True:
                    decl = self._parse_declarator(base)
                    if isinstance(decl.type, FunctionType):
                        raise CompileError("struct member cannot be a function", decl.location)
                    members.append(StructMember(decl.name, decl.type))
                    if not self._accept(TK.COMMA):
                        break
                self._expect(TK.SEMI)
            self._expect(TK.RBRACE)
            try:
                struct.define(members)
            except ValueError as exc:
                raise self._error(str(exc)) from None
        return struct

    def _parse_enum(self) -> CType:
        self._advance()  # enum
        self._accept(TK.IDENT)  # tag, unused: enums are just ints here
        if self._accept(TK.LBRACE):
            next_value = 0
            while not self._at(TK.RBRACE):
                name_tok = self._expect(TK.IDENT)
                if self._accept(TK.ASSIGN):
                    next_value = self._parse_constant_int()
                sym = Symbol(
                    name_tok.text, ct.INT, Storage.ENUM_CONST,
                    name_tok.location, enum_value=next_value,
                )
                self._declare()
                self.scope.declare(sym)
                next_value += 1
                if not self._accept(TK.COMMA):
                    break
            self._expect(TK.RBRACE)
        return ct.INT

    def _parse_constant_int(self) -> int:
        """Parse a (very) constant expression: used for enum values only.

        Full constant expressions elsewhere (array sizes, case labels) are
        folded by sema; enum values must be known during parsing, so only
        literals, prior enum constants, unary +/-, and | of those allowed.
        """
        expr = self._conditional()
        value = _fold_const(expr, self.scope)
        if value is None:
            raise CompileError("enum value must be a constant expression", expr.location)
        return value

    def _parse_declarator(self, base: CType) -> Declarator:
        """Parse pointer/array/function declarator structure around a name."""
        while self._accept(TK.STAR):
            while self._accept(TK.KW_CONST):
                pass
            base = PointerType(base)
        # Parenthesized declarators, e.g. int (*fp)(int).
        if self._at(TK.LPAREN) and (
            self._peek(1).kind is TK.STAR or self._peek(1).kind is TK.LPAREN
        ):
            self._advance()
            # Parse the inner declarator against a placeholder, then graft.
            inner = self._parse_declarator(ct.VOID)
            self._expect(TK.RPAREN)
            inner_params = self._last_params  # the named params, if any
            suffix = self._parse_declarator_suffix(base)
            self._last_params = inner_params
            grafted = _graft(inner.type, suffix)
            return Declarator(inner.name, grafted, inner.location)
        name_tok = self._accept(TK.IDENT)
        name = name_tok.text if name_tok else ""
        loc = name_tok.location if name_tok else self._peek().location
        full = self._parse_declarator_suffix(base)
        return Declarator(name, full, loc)

    def _parse_declarator_suffix(self, base: CType) -> CType:
        """Parse trailing ``[N]`` and ``(params)`` declarator parts."""
        if self._at(TK.LPAREN):
            self._advance()
            params, variadic = self._parse_param_types()
            self._expect(TK.RPAREN)
            ret = self._parse_declarator_suffix(base)
            self._last_params = params  # recovered by _function_definition
            return FunctionType(ret, tuple(p.type for p in params), variadic)
        if self._at(TK.LBRACKET):
            self._advance()
            count: Optional[int] = None
            if not self._at(TK.RBRACKET):
                expr = self._conditional()
                count = _fold_const(expr, self.scope)
                if count is None or count < 0:
                    raise CompileError("array size must be a non-negative constant",
                                       expr.location)
            self._expect(TK.RBRACKET)
            element = self._parse_declarator_suffix(base)
            return ArrayType(element, count)
        return base

    def _parse_param_types(self) -> Tuple[List[ParamDecl], bool]:
        params: List[ParamDecl] = []
        variadic = False
        if self._at(TK.RPAREN):
            return params, variadic
        if self._at(TK.KW_VOID) and self._peek(1).kind is TK.RPAREN:
            self._advance()
            return params, variadic
        while True:
            if self._accept(TK.ELLIPSIS):
                variadic = True
                break
            base = self._parse_base_type()
            decl = self._parse_declarator(base)
            ptype = decl.type
            # Arrays and functions decay to pointers in parameter lists.
            if isinstance(ptype, ArrayType):
                ptype = PointerType(ptype.element)
            elif isinstance(ptype, FunctionType):
                ptype = PointerType(ptype)
            params.append(ParamDecl(decl.name, ptype, decl.location))
            if not self._accept(TK.COMMA):
                break
        return params, variadic

    # -- external declarations -------------------------------------------

    def _external_declaration(self) -> None:
        start = self._peek().location
        scope = (len(self.scope.names), len(self.scope.tags))
        declarations = self.declarations
        is_typedef = bool(self._accept(TK.KW_TYPEDEF))
        is_static = bool(self._accept(TK.KW_STATIC))
        is_extern = bool(self._accept(TK.KW_EXTERN))
        base = self._parse_base_type()
        if self._accept(TK.SEMI):
            return  # bare struct/enum declaration
        first = True
        while True:
            decl = self._parse_declarator(base)
            if is_typedef:
                if not decl.name:
                    raise CompileError("typedef requires a name", decl.location)
                self._declare()
                self.scope.declare(
                    Symbol(decl.name, decl.type, Storage.TYPEDEF, decl.location)
                )
            elif isinstance(decl.type, FunctionType):
                if first and self._at(TK.LBRACE):
                    self._function_definition(decl, is_static)
                    self.definitions.append(Definition(
                        self.unit.functions[-1], start,
                        self.tokens[self.pos - 1].location, scope,
                        self.declarations != declarations))
                    return
                self.unit.functions.append(
                    FunctionDef(decl.name, decl.type, [], decl.location,
                                body=None, is_static=is_static)
                )
            else:
                if not decl.name:
                    raise CompileError("declaration requires a name", decl.location)
                init = None
                if self._accept(TK.ASSIGN):
                    init = self._parse_initializer()
                self.unit.globals.append(
                    VarDecl(decl.name, decl.type, decl.location, init,
                            is_static=is_static, is_extern=is_extern)
                )
            first = False
            if not self._accept(TK.COMMA):
                break
        self._expect(TK.SEMI)

    def _function_definition(self, decl: Declarator, is_static: bool) -> None:
        assert isinstance(decl.type, FunctionType)
        # Re-parse parameters to recover names: _parse_declarator kept only
        # the types in the FunctionType, so walk back isn't possible —
        # instead _parse_declarator_suffix stashes them below.
        params = self._last_params or []
        body = self._block()
        self.unit.functions.append(
            FunctionDef(decl.name, decl.type, params, decl.location, body, is_static)
        )

    # Parameter names of the most recent '(...)' suffix, for definitions.
    _last_params: Optional[List[ParamDecl]] = None

    # -- statements --------------------------------------------------------

    def _block(self) -> Block:
        lbrace = self._expect(TK.LBRACE)
        body: List[Stmt] = []
        while not self._at(TK.RBRACE):
            if self._at(TK.EOF):
                raise self._error("unexpected end of file inside block")
            body.append(self._statement())
        self._expect(TK.RBRACE)
        return Block(lbrace.location, body)

    def _statement(self) -> Stmt:
        self._statement_depth += 1
        if self._statement_depth > MAX_STATEMENT_NESTING:
            raise CompileError(
                f"statement nests too deeply (more than "
                f"{MAX_STATEMENT_NESTING} nested statements)",
                self._peek().location)
        try:
            tok = self._peek()
            k = tok.kind
            if k is TK.LBRACE:
                return self._block()
            if k is TK.SEMI:
                self._advance()
                return EmptyStmt(tok.location)
            if k is TK.KW_IF:
                return self._if_statement()
            if k is TK.KW_WHILE:
                self._advance()
                self._expect(TK.LPAREN)
                cond = self._expression()
                self._expect(TK.RPAREN)
                return While(tok.location, cond, self._statement())
            if k is TK.KW_DO:
                self._advance()
                body = self._statement()
                self._expect(TK.KW_WHILE)
                self._expect(TK.LPAREN)
                cond = self._expression()
                self._expect(TK.RPAREN)
                self._expect(TK.SEMI)
                return DoWhile(tok.location, body, cond)
            if k is TK.KW_FOR:
                return self._for_statement()
            if k is TK.KW_RETURN:
                self._advance()
                value = None if self._at(TK.SEMI) else self._expression()
                self._expect(TK.SEMI)
                return Return(tok.location, value)
            if k is TK.KW_BREAK:
                self._advance()
                self._expect(TK.SEMI)
                return Break(tok.location)
            if k is TK.KW_CONTINUE:
                self._advance()
                self._expect(TK.SEMI)
                return Continue(tok.location)
            if k is TK.KW_SWITCH:
                return self._switch_statement()
            if k is TK.KW_CASE or k is TK.KW_DEFAULT:
                return self._case_statement()
            if k is TK.KW_GOTO:
                raise self._error("goto is not supported by this C subset")
            if self._starts_type() or k is TK.KW_STATIC:
                return self._local_declaration()
            expr = self._expression()
            self._expect(TK.SEMI)
            return ExprStmt(tok.location, expr)
        finally:
            self._statement_depth -= 1

    def _if_statement(self) -> If:
        tok = self._advance()
        self._expect(TK.LPAREN)
        cond = self._expression()
        self._expect(TK.RPAREN)
        then = self._statement()
        otherwise = self._statement() if self._accept(TK.KW_ELSE) else None
        return If(tok.location, cond, then, otherwise)

    def _for_statement(self) -> For:
        tok = self._advance()
        self._expect(TK.LPAREN)
        init: Optional[Union[Expr, DeclStmt]] = None
        if self._starts_type():
            init = self._local_declaration()
        elif not self._at(TK.SEMI):
            init = self._expression()
            self._expect(TK.SEMI)
        else:
            self._advance()
        cond = None if self._at(TK.SEMI) else self._expression()
        self._expect(TK.SEMI)
        step = None if self._at(TK.RPAREN) else self._expression()
        self._expect(TK.RPAREN)
        return For(tok.location, init, cond, step, self._statement())

    def _switch_statement(self) -> Switch:
        tok = self._advance()
        self._expect(TK.LPAREN)
        scrutinee = self._expression()
        self._expect(TK.RPAREN)
        return Switch(tok.location, scrutinee, self._statement())

    def _case_statement(self) -> Case:
        tok = self._advance()
        value: Optional[Expr] = None
        if tok.kind is TK.KW_CASE:
            value = self._conditional()
        self._expect(TK.COLON)
        # A case label may be immediately followed by another label or '}'.
        if self._at(TK.KW_CASE) or self._at(TK.KW_DEFAULT) or self._at(TK.RBRACE):
            body: Stmt = EmptyStmt(tok.location)
        else:
            body = self._statement()
        return Case(tok.location, value, body)

    def _local_declaration(self) -> DeclStmt:
        loc = self._peek().location
        is_static = bool(self._accept(TK.KW_STATIC))
        base = self._parse_base_type()
        decls: List[VarDecl] = []
        if self._accept(TK.SEMI):  # bare struct/enum declaration
            return DeclStmt(loc, decls)
        while True:
            decl = self._parse_declarator(base)
            if not decl.name:
                raise CompileError("declaration requires a name", decl.location)
            init = None
            if self._accept(TK.ASSIGN):
                init = self._parse_initializer()
            decls.append(VarDecl(decl.name, decl.type, decl.location, init,
                                 is_static=is_static))
            if not self._accept(TK.COMMA):
                break
        self._expect(TK.SEMI)
        return DeclStmt(loc, decls)

    def _parse_initializer(self) -> Union[Initializer, InitList]:
        tok = self._peek()
        if tok.kind is TK.LBRACE:
            self._advance()
            items: List[Union[Initializer, InitList]] = []
            while not self._at(TK.RBRACE):
                items.append(self._parse_initializer())
                if not self._accept(TK.COMMA):
                    break
            self._expect(TK.RBRACE)
            return InitList(tok.location, items)
        return Initializer(tok.location, self._assignment())

    # -- expressions -------------------------------------------------------

    def _expression(self) -> Expr:
        """Full expression including the comma operator."""
        expr = self._assignment()
        while self._at(TK.COMMA):
            loc = self._advance().location
            right = self._assignment()
            expr = Binary(loc, ",", expr, right)
        return expr

    def _assignment(self) -> Expr:
        left = self._conditional()
        op = _ASSIGN_OPS.get(self._peek().kind)
        if op is None:
            return left
        loc = self._advance().location
        value = self._assignment()
        return Assign(loc, op, left, value)

    def _conditional(self) -> Expr:
        cond = self._binary()
        if not self._at(TK.QUESTION):
            return cond
        loc = self._advance().location
        then = self._expression()
        self._expect(TK.COLON)
        otherwise = self._conditional()
        return Conditional(loc, cond, then, otherwise)

    def _binary(self, min_precedence: int = 1) -> Expr:
        """Precedence climbing: a left-associative chain of binary
        operators binding at least as tightly as ``min_precedence``."""
        left = self._cast_expr()
        ops = _BINARY_OPS
        while True:
            tok = self._peek()
            op = ops.get(tok.kind)
            if op is None or op[0] < min_precedence:
                return left
            self._advance()
            right = self._binary(op[0] + 1)
            left = Binary(tok.location, op[1], left, right)

    def _cast_expr(self) -> Expr:
        if self._at(TK.LPAREN) and self._starts_type(1):
            loc = self._advance().location
            base = self._parse_base_type()
            # Abstract declarator: pointers/arrays without a name.
            decl = self._parse_declarator(base)
            self._expect(TK.RPAREN)
            operand = self._cast_expr()
            return Cast(loc, decl.type, operand)
        return self._unary()

    def _unary(self) -> Expr:
        tok = self._peek()
        k = tok.kind
        if k is TK.PLUSPLUS or k is TK.MINUSMINUS:
            self._advance()
            return IncDec(tok.location, tok.kind.value, self._unary(), postfix=False)
        if k in (TK.MINUS, TK.PLUS, TK.TILDE, TK.BANG, TK.STAR, TK.AMP):
            self._advance()
            return Unary(tok.location, tok.text, self._cast_expr())
        if k is TK.KW_SIZEOF:
            self._advance()
            if self._at(TK.LPAREN) and self._starts_type(1):
                self._advance()
                base = self._parse_base_type()
                decl = self._parse_declarator(base)
                self._expect(TK.RPAREN)
                return SizeofType(tok.location, decl.type)
            # sizeof expr: wrap the operand; sema computes the size.
            return Unary(tok.location, "sizeof", self._unary())
        return self._postfix()

    def _postfix(self) -> Expr:
        expr = self._primary()
        while True:
            tok = self._peek()
            k = tok.kind
            if k is TK.LPAREN:
                self._advance()
                self._open_bracket(tok)
                args: List[Expr] = []
                if not self._at(TK.RPAREN):
                    while True:
                        args.append(self._assignment())
                        if not self._accept(TK.COMMA):
                            break
                self._expect(TK.RPAREN)
                self._expression_depth -= 1
                expr = Call(tok.location, expr, args)
            elif k is TK.LBRACKET:
                self._advance()
                self._open_bracket(tok)
                index = self._expression()
                self._expect(TK.RBRACKET)
                self._expression_depth -= 1
                expr = Index(tok.location, expr, index)
            elif k is TK.DOT:
                self._advance()
                name = self._expect(TK.IDENT).text
                expr = Member(tok.location, expr, name, arrow=False)
            elif k is TK.ARROW:
                self._advance()
                name = self._expect(TK.IDENT).text
                expr = Member(tok.location, expr, name, arrow=True)
            elif k is TK.PLUSPLUS or k is TK.MINUSMINUS:
                self._advance()
                expr = IncDec(tok.location, tok.kind.value, expr, postfix=True)
            else:
                return expr

    def _primary(self) -> Expr:
        tok = self._peek()
        k = tok.kind
        if k is TK.INT_LIT or k is TK.CHAR_LIT:
            self._advance()
            assert isinstance(tok.value, int)
            return IntLit(tok.location, tok.value)
        if k is TK.FLOAT_LIT:
            self._advance()
            assert isinstance(tok.value, float)
            return FloatLit(tok.location, tok.value)
        if k is TK.STRING_LIT:
            self._advance()
            assert isinstance(tok.value, str)
            return StringLit(tok.location, tok.value)
        if k is TK.IDENT:
            self._advance()
            # Enum constants fold to literals here (the parser owns the
            # scope they were declared in).  Note: a local variable cannot
            # shadow an enum constant in this subset.
            sym = self.scope.lookup(tok.text)
            from .symbols import Storage as _St
            if sym is not None and sym.storage is _St.ENUM_CONST:
                return IntLit(tok.location, sym.enum_value)
            return NameRef(tok.location, tok.text)
        if k is TK.LPAREN:
            self._advance()
            self._open_bracket(tok)
            expr = self._expression()
            self._expect(TK.RPAREN)
            self._expression_depth -= 1
            return expr
        raise self._error(f"expected an expression, found {tok!r}")


def _graft(inner: CType, suffix: CType) -> CType:
    """Replace the VOID placeholder at the core of ``inner`` with ``suffix``.

    Supports the parenthesized-declarator forms we accept: pointer chains
    and array/function wrappers around the placeholder.
    """
    if isinstance(inner, PointerType):
        return PointerType(_graft(inner.target, suffix))
    if isinstance(inner, ArrayType):
        return ArrayType(_graft(inner.element, suffix), inner.count)
    if isinstance(inner, FunctionType):
        return FunctionType(_graft(inner.ret, suffix), inner.params, inner.variadic)
    return suffix


def _fold_const(expr: Expr, scope: Scope) -> Optional[int]:
    """Best-effort integer constant folding during parsing."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, NameRef):
        sym = scope.lookup(expr.name)
        if sym is not None and sym.storage is Storage.ENUM_CONST:
            return sym.enum_value
        return None
    if isinstance(expr, Unary) and expr.operand is not None:
        val = _fold_const(expr.operand, scope)
        if val is None:
            return None
        if expr.op == "-":
            return -val
        if expr.op == "+":
            return val
        if expr.op == "~":
            return ~val
        if expr.op == "!":
            return int(not val)
        return None
    if isinstance(expr, Binary) and expr.left is not None and expr.right is not None:
        a = _fold_const(expr.left, scope)
        b = _fold_const(expr.right, scope)
        if a is None or b is None:
            return None
        ops = {
            "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "|": lambda: a | b, "&": lambda: a & b, "^": lambda: a ^ b,
            "<<": lambda: a << b, ">>": lambda: a >> b,
            "/": lambda: _cdiv(a, b), "%": lambda: _cmod(a, b),
            "==": lambda: int(a == b), "!=": lambda: int(a != b),
            "<": lambda: int(a < b), ">": lambda: int(a > b),
            "<=": lambda: int(a <= b), ">=": lambda: int(a >= b),
        }
        fn = ops.get(expr.op)
        return fn() if fn else None
    return None


def _cdiv(a: int, b: int) -> int:
    """C-style (truncating) integer division."""
    if b == 0:
        raise ZeroDivisionError("division by zero in constant expression")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _cmod(a: int, b: int) -> int:
    """C-style remainder (sign follows the dividend)."""
    return a - _cdiv(a, b) * b


def parse(source: str, filename: str = "<input>") -> TranslationUnit:
    """Tokenize and parse ``source`` into an untyped AST."""
    return Parser(tokenize(source, filename)).parse_unit()


class _DefinitionParser(Parser):
    """A parser whose scope belongs to an earlier parse: it refuses to
    change it."""

    def _declare(self) -> None:
        raise self._error("a re-parsed definition may not change the "
                          "top-level scope")


def parse_definition(tokens: List[Token], scope: Scope) -> Definition:
    """Parse ``tokens``, which must hold exactly one function definition,
    against ``scope``: a parser's top-level scope as it stood before that
    definition.  Raises :class:`CompileError` when the tokens hold
    anything else, or declare a name or tag, or define a tag: the scope
    is only read."""
    parser = _DefinitionParser(tokens, scope)
    unit = parser.parse_unit()
    if len(unit.functions) != 1 or unit.globals or not parser.definitions:
        raise CompileError("not exactly one function definition",
                           tokens[0].location)
    return parser.definitions[0]
