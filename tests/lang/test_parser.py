"""Unit tests for the MiniC parser."""

import pytest

from repro.lang import ast_nodes as ast
from repro.lang.ctypes_ import ArrayType, PointerType, StructType
from repro.lang.errors import ParseError
from repro.lang.parser import parse


def parse_expr(text):
    """Parse `text` as the returned expression of a wrapper function."""
    program = parse(f"int main() {{ return {text}; }}")
    stmt = program.function("main").body.stmts[0]
    assert isinstance(stmt, ast.Return)
    return stmt.expr


def parse_stmts(text):
    program = parse(f"int main() {{ {text} }}")
    return program.function("main").body.stmts


class TestDeclarations:
    def test_global_scalar(self):
        program = parse("int x = 5;")
        decl = program.globals[0].decls[0]
        assert decl.name == "x"
        assert str(decl.ctype) == "int"
        assert isinstance(decl.init, ast.IntLiteral)

    def test_pointer_declarator(self):
        program = parse("char *p;")
        assert isinstance(program.globals[0].decls[0].ctype, PointerType)

    def test_double_pointer(self):
        program = parse("int **pp;")
        ctype = program.globals[0].decls[0].ctype
        assert isinstance(ctype, PointerType)
        assert isinstance(ctype.pointee, PointerType)

    def test_array(self):
        program = parse("int a[10];")
        ctype = program.globals[0].decls[0].ctype
        assert isinstance(ctype, ArrayType)
        assert ctype.length == 10

    def test_2d_array(self):
        program = parse("int a[3][4];")
        ctype = program.globals[0].decls[0].ctype
        assert ctype.length == 3
        assert ctype.element.length == 4

    def test_array_of_pointers(self):
        program = parse("int *a[10];")
        ctype = program.globals[0].decls[0].ctype
        assert isinstance(ctype, ArrayType)
        assert isinstance(ctype.element, PointerType)

    def test_constant_dimension_expression(self):
        program = parse("int a[4 * 8 + 2];")
        assert program.globals[0].decls[0].ctype.length == 34

    def test_non_constant_dimension_rejected(self):
        with pytest.raises(ParseError):
            parse("int n; int a[n];")

    @pytest.mark.parametrize("dimension", ["(0 - 7) / 2 + 10",
                                           "(0 - 7) % 4 + 10"])
    def test_dimension_folds_with_c_division(self, dimension):
        # C truncates toward zero: -7 / 2 is -3 and -7 % 4 is -3.
        program = parse(f"int a[{dimension}];")
        assert program.globals[0].decls[0].ctype.length == 7

    @pytest.mark.parametrize("dimension", ["1 / 0", "1 % 0", "1 << (0 - 1)"])
    def test_undefined_dimension_rejected(self, dimension):
        with pytest.raises(ParseError, match="constant expression"):
            parse(f"int a[{dimension}];")

    def test_multiple_declarators(self):
        program = parse("int a, b = 2, c;")
        assert [d.name for d in program.globals[0].decls] == ["a", "b", "c"]

    def test_init_list(self):
        program = parse("int a[3] = {1, 2, 3};")
        init = program.globals[0].decls[0].init
        assert isinstance(init, ast.Call) and init.name == "__init_list__"
        assert len(init.args) == 3

    def test_init_list_trailing_comma(self):
        program = parse("int a[2] = {1, 2,};")
        assert len(program.globals[0].decls[0].init.args) == 2

    def test_unsigned_types(self):
        program = parse("unsigned int a; unsigned char b; unsigned c;")
        names = [str(g.decls[0].ctype) for g in program.globals]
        assert names == ["unsigned int", "unsigned char", "unsigned int"]

    def test_short_long(self):
        program = parse("short a; long b; short int c; long int d;")
        sizes = [g.decls[0].ctype.size for g in program.globals]
        assert sizes == [2, 8, 2, 8]


class TestStructs:
    def test_struct_definition(self):
        program = parse("struct point { int x; int y; };")
        struct = program.struct_defs[0].struct_type
        assert isinstance(struct, StructType)
        assert [m.name for m in struct.members] == ["x", "y"]

    def test_struct_variable(self):
        program = parse("struct p { int x; }; struct p g;")
        assert program.globals[0].decls[0].ctype.is_struct

    def test_struct_pointer_member_access(self):
        program = parse(
            "struct p { int x; };"
            "int f(struct p *q) { return q->x; }"
        )
        expr = program.function("f").body.stmts[0].expr
        assert isinstance(expr, ast.Member)
        assert expr.is_arrow

    def test_unknown_struct_rejected(self):
        with pytest.raises(ParseError):
            parse("struct nope g;")

    def test_struct_redefinition_rejected(self):
        with pytest.raises(ParseError):
            parse("struct p { int x; }; struct p { int y; };")


class TestStatements:
    def test_for_with_decl_init(self):
        (stmt,) = parse_stmts("for (int i = 0; i < 10; i++) {}")
        assert isinstance(stmt, ast.For)
        assert isinstance(stmt.init, ast.DeclStmt)

    def test_for_with_expr_init(self):
        (decl, stmt) = parse_stmts("int i; for (i = 0; i < 10; i++) ;")
        assert isinstance(stmt.init, ast.ExprStmt)

    def test_for_empty_clauses(self):
        (stmt,) = parse_stmts("for (;;) break;")
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_while(self):
        (stmt,) = parse_stmts("while (1) {}")
        assert isinstance(stmt, ast.While)

    def test_do_while(self):
        (stmt,) = parse_stmts("do { } while (0);")
        assert isinstance(stmt, ast.DoWhile)

    def test_if_else(self):
        (stmt,) = parse_stmts("if (1) ; else ;")
        assert isinstance(stmt, ast.If)
        assert stmt.else_stmt is not None

    def test_dangling_else_binds_inner(self):
        (stmt,) = parse_stmts("if (1) if (0) ; else ;")
        assert stmt.else_stmt is None
        assert stmt.then_stmt.else_stmt is not None

    def test_break_continue_return(self):
        stmts = parse_stmts("while (1) { break; } while (1) { continue; } return 0;")
        assert isinstance(stmts[-1], ast.Return)

    def test_empty_statement(self):
        (stmt,) = parse_stmts(";")
        assert isinstance(stmt, ast.EmptyStmt)

    def test_nested_blocks(self):
        (stmt,) = parse_stmts("{ { int x; } }")
        assert isinstance(stmt, ast.Block)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_stmts("int x = 5")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parentheses_override(self):
        expr = parse_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_left_associativity(self):
        expr = parse_expr("10 - 4 - 3")
        assert expr.op == "-"
        assert expr.left.op == "-"

    def test_assignment_right_associative(self):
        program = parse("int main() { int a, b; a = b = 1; return a; }")
        assign = program.function("main").body.stmts[1].expr
        assert isinstance(assign.value, ast.Assign)

    def test_compound_assignment(self):
        (decl, stmt) = parse_stmts("int a; a += 3;")
        assert stmt.expr.op == "+"

    def test_ternary(self):
        expr = parse_expr("1 ? 2 : 3")
        assert isinstance(expr, ast.Ternary)

    def test_nested_ternary(self):
        expr = parse_expr("1 ? 2 : 3 ? 4 : 5")
        assert isinstance(expr.else_expr, ast.Ternary)

    def test_logical_precedence(self):
        expr = parse_expr("1 || 2 && 3")
        assert expr.op == "||"
        assert expr.right.op == "&&"

    def test_unary_chain(self):
        expr = parse_expr("-~!1")
        assert expr.op == "-"
        assert expr.operand.op == "~"
        assert expr.operand.operand.op == "!"

    def test_deref_and_address(self):
        program = parse("int main() { int x; return *&x; }")
        ret = program.function("main").body.stmts[1].expr
        assert ret.op == "*"
        assert ret.operand.op == "&"

    def test_postfix_increment(self):
        program = parse("int main() { int i; i++; return i; }")
        expr = program.function("main").body.stmts[1].expr
        assert isinstance(expr, ast.IncDec)
        assert expr.is_postfix

    def test_prefix_increment(self):
        program = parse("int main() { int i; ++i; return i; }")
        expr = program.function("main").body.stmts[1].expr
        assert not expr.is_postfix

    def test_index_chain(self):
        program = parse("int a[2][3]; int main() { return a[1][2]; }")
        expr = program.function("main").body.stmts[0].expr
        assert isinstance(expr, ast.Index)
        assert isinstance(expr.base, ast.Index)

    def test_call_with_args(self):
        program = parse("int f(int a, int b) { return a; } int main() { return f(1, 2); }")
        call = program.function("main").body.stmts[0].expr
        assert isinstance(call, ast.Call)
        assert len(call.args) == 2

    def test_cast(self):
        expr = parse_expr("(char)300")
        assert isinstance(expr, ast.Cast)
        assert str(expr.target_type) == "char"

    def test_pointer_cast(self):
        expr = parse_expr("(int*)0")
        assert isinstance(expr.target_type, PointerType)

    def test_sizeof_type(self):
        expr = parse_expr("sizeof(int)")
        assert isinstance(expr, ast.SizeofType)

    def test_sizeof_expr(self):
        program = parse("int main() { int x; return sizeof x; }")
        expr = program.function("main").body.stmts[1].expr
        assert isinstance(expr, ast.SizeofExpr)

    def test_string_literal_expr(self):
        program = parse('int main() { printf("hi"); return 0; }')
        call = program.function("main").body.stmts[0].expr
        assert isinstance(call.args[0], ast.StringLiteral)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("int main() { return (1 + 2; }")


class TestFunctions:
    def test_void_function_no_params(self):
        program = parse("void f() { } void g(void) { }")
        assert len(program.functions) == 2
        assert program.function("f").params == []
        assert program.function("g").params == []

    def test_param_array_decays(self):
        program = parse("int f(int a[10]) { return a[0]; }")
        assert isinstance(program.function("f").params[0].ctype, PointerType)

    def test_pointer_return_type(self):
        program = parse("int *f() { return 0; }")
        assert isinstance(program.function("f").return_type, PointerType)

    def test_walk_covers_all_functions(self):
        program = parse("int f() { return 1; } int main() { return f(); }")
        names = {n.name for n in ast.walk(program) if isinstance(n, ast.FunctionDef)}
        assert names == {"f", "main"}
