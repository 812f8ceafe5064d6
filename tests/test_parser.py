"""C parser tests (syntax only; typing is covered in test_sema)."""

import pytest

from repro.cfront import ctypes as ct
from repro.cfront.astnodes import (
    Assign, Binary, Block, Call, Case, Conditional, DeclStmt, DoWhile,
    For, If, IncDec, Index, Member, Return, Switch, Unary, While,
)
from repro.cfront.ctypes import ArrayType, FunctionType, PointerType, StructType
from repro.cfront.errors import CompileError
from repro.cfront.parser import parse


def parse_expr(src):
    unit = parse(f"int f(void) {{ return {src}; }}")
    ret = unit.functions[0].body.body[0]
    assert isinstance(ret, Return)
    return ret.value


def parse_stmts(src):
    unit = parse(f"void f(void) {{ {src} }}")
    return unit.functions[0].body.body


class TestDeclarations:
    def test_global_int(self):
        unit = parse("int x;")
        assert unit.globals[0].name == "x"
        assert unit.globals[0].type == ct.INT

    def test_pointer_chain(self):
        unit = parse("int **pp;")
        t = unit.globals[0].type
        assert isinstance(t, PointerType) and isinstance(t.target, PointerType)

    def test_array(self):
        unit = parse("int a[10];")
        t = unit.globals[0].type
        assert isinstance(t, ArrayType) and t.count == 10

    def test_multidim_array(self):
        unit = parse("int m[3][4];")
        t = unit.globals[0].type
        assert isinstance(t, ArrayType) and t.count == 3
        assert isinstance(t.element, ArrayType) and t.element.count == 4

    def test_array_size_constant_expr(self):
        unit = parse("enum { N = 8 }; int a[N * 2];")
        assert unit.globals[0].type.count == 16

    def test_negative_array_size_rejected(self):
        with pytest.raises(CompileError):
            parse("int a[-1];")

    def test_multiple_declarators(self):
        unit = parse("int x, *p, a[2];")
        names = [g.name for g in unit.globals]
        assert names == ["x", "p", "a"]
        assert isinstance(unit.globals[1].type, PointerType)
        assert isinstance(unit.globals[2].type, ArrayType)

    def test_function_prototype(self):
        unit = parse("int add(int a, int b);")
        fn = unit.functions[0]
        assert fn.body is None
        assert isinstance(fn.type, FunctionType)
        assert len(fn.type.params) == 2

    def test_function_definition_param_names(self):
        unit = parse("int add(int a, int b) { return 0; }")
        assert [p.name for p in unit.functions[0].params] == ["a", "b"]

    def test_void_param_list(self):
        unit = parse("int f(void);")
        assert unit.functions[0].type.params == ()

    def test_variadic(self):
        unit = parse("int printfish(char *fmt, ...);")
        assert unit.functions[0].type.variadic

    def test_function_pointer_declarator(self):
        unit = parse("int (*handler)(int, int);")
        t = unit.globals[0].type
        assert isinstance(t, PointerType)
        assert isinstance(t.target, FunctionType)
        assert len(t.target.params) == 2

    def test_function_returning_function_pointer(self):
        unit = parse("int (*pick(int which))(int, int) { return 0; }")
        fn = unit.functions[0]
        assert isinstance(fn.type, FunctionType)
        ret = fn.type.ret
        assert isinstance(ret, PointerType)
        assert isinstance(ret.target, FunctionType)
        assert [p.name for p in fn.params] == ["which"]

    def test_typedef(self):
        unit = parse("typedef unsigned int uint; uint x;")
        assert unit.globals[0].type == ct.UINT

    def test_typedef_pointer(self):
        unit = parse("typedef char *string; string s;")
        assert unit.globals[0].type == PointerType(ct.CHAR)

    def test_struct_definition_and_use(self):
        unit = parse("struct P { int x; int y; }; struct P p;")
        t = unit.globals[0].type
        assert isinstance(t, StructType)
        assert t.size == 8

    def test_struct_members_multi_declarator(self):
        unit = parse("struct P { int x, y; }; struct P p;")
        assert unit.globals[0].type.size == 8

    def test_union(self):
        unit = parse("union U { int i; char c; }; union U u;")
        t = unit.globals[0].type
        assert t.is_union and t.size == 4

    def test_struct_redefinition_rejected(self):
        with pytest.raises(CompileError):
            parse("struct P { int x; }; struct P { int y; };")

    def test_enum_values(self):
        unit = parse("enum { A, B = 5, C }; int x[C];")
        assert unit.globals[0].type.count == 6

    def test_static_and_extern(self):
        unit = parse("static int s; extern int e;")
        assert unit.globals[0].is_static
        assert unit.globals[1].is_extern


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expr("1 + 2 * 3")
        assert isinstance(e, Binary) and e.op == "+"
        assert isinstance(e.right, Binary) and e.right.op == "*"

    def test_precedence_shift_below_add(self):
        e = parse_expr("1 << 2 + 3")
        assert e.op == "<<"
        assert isinstance(e.right, Binary) and e.right.op == "+"

    def test_precedence_relational_vs_equality(self):
        e = parse_expr("a == b < c")
        assert e.op == "=="
        assert isinstance(e.right, Binary) and e.right.op == "<"

    def test_logical_lowest(self):
        e = parse_expr("a && b | c")
        assert e.op == "&&"

    def test_assignment_right_associative(self):
        stmts = parse_stmts("int a; int b; a = b = 1;")
        assign = stmts[2].expr
        assert isinstance(assign, Assign)
        assert isinstance(assign.value, Assign)

    def test_conditional(self):
        e = parse_expr("a ? 1 : 2")
        assert isinstance(e, Conditional)

    def test_unary_binds_tighter_than_binary(self):
        e = parse_expr("-a * b")
        assert isinstance(e, Binary) and e.op == "*"
        assert isinstance(e.left, Unary) and e.left.op == "-"

    def test_cast_expression(self):
        e = parse_expr("(unsigned)x")
        from repro.cfront.astnodes import Cast
        assert isinstance(e, Cast) and e.target == ct.UINT

    def test_sizeof_type(self):
        e = parse_expr("sizeof(int)")
        from repro.cfront.astnodes import SizeofType
        assert isinstance(e, SizeofType) and e.target == ct.INT

    def test_sizeof_expr(self):
        e = parse_expr("sizeof x")
        assert isinstance(e, Unary) and e.op == "sizeof"

    def test_postfix_chain(self):
        e = parse_expr("a[1].f")
        assert isinstance(e, Member)
        assert isinstance(e.base, Index)

    def test_arrow(self):
        e = parse_expr("p->next")
        assert isinstance(e, Member) and e.arrow

    def test_call_with_args(self):
        e = parse_expr("f(1, 2, 3)")
        assert isinstance(e, Call) and len(e.args) == 3

    def test_postfix_increment(self):
        e = parse_expr("x++")
        assert isinstance(e, IncDec) and e.postfix

    def test_prefix_decrement(self):
        e = parse_expr("--x")
        assert isinstance(e, IncDec) and not e.postfix and e.op == "--"

    def test_comma_in_parens(self):
        e = parse_expr("(a, b)")
        assert isinstance(e, Binary) and e.op == ","

    def test_missing_operand_rejected(self):
        with pytest.raises(CompileError):
            parse_expr("1 +")

    def test_binary_operators_associate_left(self):
        e = parse_expr("a - b + c")
        assert e.op == "+" and e.left.op == "-"
        e = parse_expr("a * b + c * d - e || f")
        assert e.op == "||" and e.left.op == "-"
        assert e.left.left.op == "+"
        assert e.left.left.left.op == "*" and e.left.left.right.op == "*"

    def test_binary_node_sits_at_its_operator(self):
        e = parse_expr("a + b * c")
        # "int f(void) { return a + b * c; }": '+' at column 24, '*' at 28.
        assert e.location.column == 24 and e.right.location.column == 28


def parse_on_fresh_stack(source):
    """``parse`` on a new thread, so the test runner's frames do not count
    against the recursion limit."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(parse, source).result()


class TestNestingLimits:
    """Past C99's 63 parenthesised levels, or 400 nested statements, the
    parser stops at the token that crosses the limit."""

    @pytest.mark.parametrize("opener", ["(", "f(", "a["])
    def test_expression_nesting(self, opener):
        closer = {"(": ")", "f(": ")", "a[": "]"}[opener]

        def source(depth):
            return (f"int a[2]; int f(int x) {{ return {opener * depth}0"
                    f"{closer * depth}; }}")

        parse_on_fresh_stack(source(63))
        with pytest.raises(CompileError, match="nests too deeply") as exc_info:
            parse_on_fresh_stack(source(64))
        text = source(64)
        crossing = text.index(opener * 64) + len(opener) * 64 - 1
        assert exc_info.value.location.line == 1
        assert exc_info.value.location.column == crossing + 1

    def test_statement_nesting(self):
        def source(depth):
            return f"void f(void) {{\n{'{' * depth}{'}' * depth}\n}}"

        parse_on_fresh_stack(source(400))
        with pytest.raises(CompileError, match="nests too deeply") as exc_info:
            parse_on_fresh_stack(source(401))
        assert (exc_info.value.location.line,
                exc_info.value.location.column) == (2, 401)

    def test_else_if_arms_nest(self):
        arms = " else ".join(f"if (x == {i}) x = 0;" for i in range(400))
        with pytest.raises(CompileError, match="nests too deeply"):
            parse_on_fresh_stack(f"void f(int x) {{ {arms} }}")


class TestStatements:
    def test_if_else_binds_to_nearest(self):
        stmts = parse_stmts("if (1) if (2) ; else ;")
        outer = stmts[0]
        assert isinstance(outer, If) and outer.otherwise is None
        inner = outer.then
        assert isinstance(inner, If) and inner.otherwise is not None

    def test_while(self):
        stmts = parse_stmts("while (1) ;")
        assert isinstance(stmts[0], While)

    def test_do_while(self):
        stmts = parse_stmts("do ; while (0);")
        assert isinstance(stmts[0], DoWhile)

    def test_for_with_declaration(self):
        stmts = parse_stmts("for (int i = 0; i < 10; i++) ;")
        f = stmts[0]
        assert isinstance(f, For) and isinstance(f.init, DeclStmt)

    def test_for_all_parts_optional(self):
        stmts = parse_stmts("for (;;) break;")
        f = stmts[0]
        assert f.init is None and f.cond is None and f.step is None

    def test_switch_with_cases(self):
        stmts = parse_stmts(
            "int x; switch (x) { case 1: break; default: break; }")
        sw = stmts[1]
        assert isinstance(sw, Switch)
        body = sw.body
        assert isinstance(body, Block)
        assert any(isinstance(s, Case) for s in body.body)

    def test_local_declaration_with_init(self):
        stmts = parse_stmts("int x = 5;")
        decl = stmts[0]
        assert isinstance(decl, DeclStmt)
        assert decl.decls[0].init is not None

    def test_initializer_list(self):
        unit = parse("int a[3] = {1, 2, 3};")
        from repro.cfront.astnodes import InitList
        assert isinstance(unit.globals[0].init, InitList)

    def test_nested_initializer_list(self):
        unit = parse("int m[2][2] = {{1, 2}, {3, 4}};")
        init = unit.globals[0].init
        assert len(init.items) == 2

    def test_missing_semicolon_rejected(self):
        with pytest.raises(CompileError):
            parse_stmts("int x = 5")

    def test_unclosed_block_rejected(self):
        with pytest.raises(CompileError):
            parse("void f(void) { if (1) {")


def test_goto_rejected_with_clear_message():
    with pytest.raises(CompileError, match="goto"):
        parse("void f(void) { goto out; out: ; }")
