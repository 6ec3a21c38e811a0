"""Recursive-descent parser for MiniC.

The grammar is the C subset needed by the FORAY-GEN workloads:

* struct definitions (must precede use), global variable declarations with
  constant initializers, and function definitions;
* declarations with pointer stars and array suffixes (``int *a[10]``),
  brace initializer lists, and string-literal initializers;
* all C statements except ``switch``/``goto``;
* the full C expression grammar (assignment, ternary, binary precedence
  ladder, casts, unary, postfix, primary) minus the comma operator.
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast
from repro.lang.ctypes_ import (
    CHAR,
    CType,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    PointerType,
    SHORT,
    StructType,
    UCHAR,
    UINT,
    ULONG,
    USHORT,
    VOID,
    ArrayType,
    fold_int_binary,
    layout_struct,
)
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind

_TYPE_START_KINDS = {
    TokenKind.KW_INT,
    TokenKind.KW_CHAR,
    TokenKind.KW_SHORT,
    TokenKind.KW_LONG,
    TokenKind.KW_FLOAT,
    TokenKind.KW_DOUBLE,
    TokenKind.KW_VOID,
    TokenKind.KW_UNSIGNED,
    TokenKind.KW_SIGNED,
    TokenKind.KW_STRUCT,
    TokenKind.KW_CONST,
    TokenKind.KW_STATIC,
}

#: The binary operators an array dimension may fold.
_DIMENSION_OPS = ("+", "-", "*", "/", "%", "<<", ">>")

# Binary operator precedence (higher binds tighter), mirroring C.
_BINARY_PRECEDENCE: dict[TokenKind, tuple[int, str]] = {
    TokenKind.OR_OR: (1, "||"),
    TokenKind.AND_AND: (2, "&&"),
    TokenKind.PIPE: (3, "|"),
    TokenKind.CARET: (4, "^"),
    TokenKind.AMP: (5, "&"),
    TokenKind.EQ: (6, "=="),
    TokenKind.NE: (6, "!="),
    TokenKind.LT: (7, "<"),
    TokenKind.GT: (7, ">"),
    TokenKind.LE: (7, "<="),
    TokenKind.GE: (7, ">="),
    TokenKind.LSHIFT: (8, "<<"),
    TokenKind.RSHIFT: (8, ">>"),
    TokenKind.PLUS: (9, "+"),
    TokenKind.MINUS: (9, "-"),
    TokenKind.STAR: (10, "*"),
    TokenKind.SLASH: (10, "/"),
    TokenKind.PERCENT: (10, "%"),
}

_ASSIGN_OPS: dict[TokenKind, str] = {
    TokenKind.ASSIGN: "",
    TokenKind.PLUS_ASSIGN: "+",
    TokenKind.MINUS_ASSIGN: "-",
    TokenKind.STAR_ASSIGN: "*",
    TokenKind.SLASH_ASSIGN: "/",
    TokenKind.PERCENT_ASSIGN: "%",
    TokenKind.AMP_ASSIGN: "&",
    TokenKind.PIPE_ASSIGN: "|",
    TokenKind.CARET_ASSIGN: "^",
    TokenKind.LSHIFT_ASSIGN: "<<",
    TokenKind.RSHIFT_ASSIGN: ">>",
}


class Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self._structs: dict[str, StructType] = {}

    # -- token helpers ------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _at(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _accept(self, kind: TokenKind) -> Token | None:
        if self._at(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str = "") -> Token:
        token = self._peek()
        if token.kind is not kind:
            where = f" in {context}" if context else ""
            raise ParseError(
                f"expected {kind.value!r} but found {token.text or 'EOF'!r}{where}",
                token.location,
            )
        return self._advance()

    # -- top level ----------------------------------------------------

    def parse_program(self, source: str = "") -> ast.Program:
        struct_defs: list[ast.StructDef] = []
        globals_: list[ast.DeclStmt] = []
        functions: list[ast.FunctionDef] = []
        while not self._at(TokenKind.EOF):
            if self._at(TokenKind.KW_STRUCT) and self._peek(2).kind is TokenKind.LBRACE:
                struct_defs.append(self._parse_struct_def())
                continue
            item = self._parse_global_or_function()
            if isinstance(item, ast.FunctionDef):
                functions.append(item)
            else:
                globals_.append(item)
        return ast.Program(struct_defs, globals_, functions, source)

    def _parse_struct_def(self) -> ast.StructDef:
        loc = self._expect(TokenKind.KW_STRUCT).location
        tag = self._expect(TokenKind.IDENT, "struct definition").text
        self._expect(TokenKind.LBRACE)
        fields: list[tuple[str, CType]] = []
        while not self._accept(TokenKind.RBRACE):
            base = self._parse_type_specifier()
            while True:
                ctype, name, _ = self._parse_declarator(base)
                fields.append((name, ctype))
                if not self._accept(TokenKind.COMMA):
                    break
            self._expect(TokenKind.SEMI, "struct member")
        self._expect(TokenKind.SEMI, "struct definition")
        if tag in self._structs:
            raise ParseError(f"struct {tag} redefined", loc)
        struct_type = layout_struct(tag, fields)
        self._structs[tag] = struct_type
        return ast.StructDef(struct_type, loc)

    def _parse_global_or_function(self):
        base = self._parse_type_specifier()
        ctype, name, loc = self._parse_declarator(base)
        if self._at(TokenKind.LPAREN):
            return self._parse_function_rest(ctype, name, loc)
        decls = [self._finish_var_decl(ctype, name, loc)]
        while self._accept(TokenKind.COMMA):
            ctype2, name2, loc2 = self._parse_declarator(base)
            decls.append(self._finish_var_decl(ctype2, name2, loc2))
        self._expect(TokenKind.SEMI, "global declaration")
        return ast.DeclStmt(decls, loc)

    def _parse_function_rest(self, return_type: CType, name: str, loc) -> ast.FunctionDef:
        self._expect(TokenKind.LPAREN)
        params: list[ast.Param] = []
        if not self._at(TokenKind.RPAREN):
            if self._at(TokenKind.KW_VOID) and self._peek(1).kind is TokenKind.RPAREN:
                self._advance()
            else:
                while True:
                    base = self._parse_type_specifier()
                    ptype, pname, ploc = self._parse_declarator(base)
                    if ptype.is_array:
                        # Array parameters decay to pointers, as in C.
                        assert isinstance(ptype, ArrayType)
                        ptype = PointerType(ptype.element)
                    params.append(ast.Param(pname, ptype, ploc))
                    if not self._accept(TokenKind.COMMA):
                        break
        self._expect(TokenKind.RPAREN, "parameter list")
        body = self._parse_block()
        return ast.FunctionDef(name, return_type, params, body, loc)

    def _finish_var_decl(self, ctype: CType, name: str, loc) -> ast.VarDecl:
        init = None
        if self._accept(TokenKind.ASSIGN):
            init = self._parse_initializer()
        return ast.VarDecl(name, ctype, init, loc)

    def _parse_initializer(self) -> ast.Expr:
        if self._at(TokenKind.LBRACE):
            return self._parse_init_list()
        return self._parse_assignment_expr()

    def _parse_init_list(self) -> ast.Expr:
        loc = self._expect(TokenKind.LBRACE).location
        items: list[ast.Expr] = []
        if not self._at(TokenKind.RBRACE):
            while True:
                items.append(self._parse_initializer())
                if not self._accept(TokenKind.COMMA):
                    break
                if self._at(TokenKind.RBRACE):  # trailing comma
                    break
        self._expect(TokenKind.RBRACE, "initializer list")
        # Initializer lists are modelled as a Call node with a reserved name;
        # the semantic analyzer expands them against the declared type.
        node = ast.Call("__init_list__", items, loc)
        return node

    # -- types ---------------------------------------------------------

    def _looks_like_type(self) -> bool:
        kind = self._peek().kind
        if kind in (TokenKind.KW_CONST, TokenKind.KW_STATIC):
            return True
        if kind is TokenKind.KW_STRUCT:
            return True
        return kind in _TYPE_START_KINDS

    def _parse_type_specifier(self) -> CType:
        """Parse a base type (no pointer stars / array suffixes)."""
        while self._accept(TokenKind.KW_CONST) or self._accept(TokenKind.KW_STATIC):
            pass
        token = self._peek()
        if token.kind is TokenKind.KW_STRUCT:
            self._advance()
            tag_token = self._expect(TokenKind.IDENT, "struct type")
            struct_type = self._structs.get(tag_token.text)
            if struct_type is None:
                raise ParseError(f"unknown struct {tag_token.text!r}", tag_token.location)
            base: CType = struct_type
        else:
            base = self._parse_arith_type()
        while self._accept(TokenKind.KW_CONST):
            pass
        return base

    def _parse_arith_type(self) -> CType:
        token = self._peek()
        signed = True
        saw_sign = False
        if token.kind in (TokenKind.KW_UNSIGNED, TokenKind.KW_SIGNED):
            signed = token.kind is TokenKind.KW_SIGNED
            saw_sign = True
            self._advance()
            token = self._peek()

        mapping_signed = {
            TokenKind.KW_CHAR: CHAR,
            TokenKind.KW_SHORT: SHORT,
            TokenKind.KW_INT: INT,
            TokenKind.KW_LONG: LONG,
        }
        mapping_unsigned = {
            TokenKind.KW_CHAR: UCHAR,
            TokenKind.KW_SHORT: USHORT,
            TokenKind.KW_INT: UINT,
            TokenKind.KW_LONG: ULONG,
        }
        if token.kind in mapping_signed:
            self._advance()
            if token.kind in (TokenKind.KW_SHORT, TokenKind.KW_LONG):
                self._accept(TokenKind.KW_INT)  # "short int", "long int"
            return mapping_signed[token.kind] if signed else mapping_unsigned[token.kind]
        if token.kind is TokenKind.KW_FLOAT:
            self._advance()
            return FLOAT
        if token.kind is TokenKind.KW_DOUBLE:
            self._advance()
            return DOUBLE
        if token.kind is TokenKind.KW_VOID:
            self._advance()
            return VOID
        if saw_sign:
            return INT if signed else UINT  # bare "unsigned"
        raise ParseError(f"expected type but found {token.text!r}", token.location)

    def _parse_declarator(self, base: CType) -> tuple[CType, str, object]:
        """Parse ``* * name [N][M]`` and return (type, name, location)."""
        ctype = base
        while self._accept(TokenKind.STAR):
            while self._accept(TokenKind.KW_CONST):
                pass
            ctype = PointerType(ctype)
        name_token = self._expect(TokenKind.IDENT, "declarator")
        dims: list[int] = []
        while self._accept(TokenKind.LBRACKET):
            dim_expr = self._parse_conditional_expr()
            dims.append(self._const_int(dim_expr))
            self._expect(TokenKind.RBRACKET, "array dimension")
        for dim in reversed(dims):
            ctype = ArrayType(ctype, dim)
        return ctype, name_token.text, name_token.location

    def _const_int(self, expr: ast.Expr) -> int:
        """Fold a constant integer expression used as an array dimension."""
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.Unary) and expr.op == "-":
            return -self._const_int(expr.operand)
        if isinstance(expr, ast.Binary) and expr.op in _DIMENSION_OPS:
            value = fold_int_binary(expr.op, self._const_int(expr.left),
                                    self._const_int(expr.right))
            if value is not None:
                return value
        raise ParseError("array dimension must be a constant expression", expr.location)

    # -- statements -----------------------------------------------------

    def _parse_block(self) -> ast.Block:
        loc = self._expect(TokenKind.LBRACE, "block").location
        stmts: list[ast.Stmt] = []
        while not self._accept(TokenKind.RBRACE):
            stmts.append(self._parse_statement())
        return ast.Block(stmts, loc)

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        kind = token.kind
        if kind is TokenKind.LBRACE:
            return self._parse_block()
        if kind is TokenKind.SEMI:
            self._advance()
            return ast.EmptyStmt(token.location)
        if kind is TokenKind.KW_IF:
            return self._parse_if()
        if kind is TokenKind.KW_FOR:
            return self._parse_for()
        if kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if kind is TokenKind.KW_DO:
            return self._parse_do_while()
        if kind is TokenKind.KW_RETURN:
            self._advance()
            expr = None if self._at(TokenKind.SEMI) else self._parse_expr()
            self._expect(TokenKind.SEMI, "return")
            return ast.Return(expr, token.location)
        if kind is TokenKind.KW_BREAK:
            self._advance()
            self._expect(TokenKind.SEMI, "break")
            return ast.Break(token.location)
        if kind is TokenKind.KW_CONTINUE:
            self._advance()
            self._expect(TokenKind.SEMI, "continue")
            return ast.Continue(token.location)
        if self._looks_like_type():
            return self._parse_decl_stmt()
        expr = self._parse_expr()
        self._expect(TokenKind.SEMI, "expression statement")
        return ast.ExprStmt(expr, token.location)

    def _parse_decl_stmt(self) -> ast.DeclStmt:
        loc = self._peek().location
        base = self._parse_type_specifier()
        decls = []
        while True:
            ctype, name, dloc = self._parse_declarator(base)
            decls.append(self._finish_var_decl(ctype, name, dloc))
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.SEMI, "declaration")
        return ast.DeclStmt(decls, loc)

    def _parse_if(self) -> ast.If:
        loc = self._expect(TokenKind.KW_IF).location
        self._expect(TokenKind.LPAREN, "if")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "if")
        then_stmt = self._parse_statement()
        else_stmt = None
        if self._accept(TokenKind.KW_ELSE):
            else_stmt = self._parse_statement()
        return ast.If(cond, then_stmt, else_stmt, loc)

    def _parse_for(self) -> ast.For:
        loc = self._expect(TokenKind.KW_FOR).location
        self._expect(TokenKind.LPAREN, "for")
        init: ast.Stmt | None = None
        if not self._accept(TokenKind.SEMI):
            if self._looks_like_type():
                init = self._parse_decl_stmt()
            else:
                expr = self._parse_expr()
                self._expect(TokenKind.SEMI, "for initializer")
                init = ast.ExprStmt(expr, loc)
        cond = None if self._at(TokenKind.SEMI) else self._parse_expr()
        self._expect(TokenKind.SEMI, "for condition")
        step = None if self._at(TokenKind.RPAREN) else self._parse_expr()
        self._expect(TokenKind.RPAREN, "for")
        body = self._parse_statement()
        return ast.For(init, cond, step, body, loc)

    def _parse_while(self) -> ast.While:
        loc = self._expect(TokenKind.KW_WHILE).location
        self._expect(TokenKind.LPAREN, "while")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "while")
        body = self._parse_statement()
        return ast.While(cond, body, loc)

    def _parse_do_while(self) -> ast.DoWhile:
        loc = self._expect(TokenKind.KW_DO).location
        body = self._parse_statement()
        self._expect(TokenKind.KW_WHILE, "do-while")
        self._expect(TokenKind.LPAREN, "do-while")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "do-while")
        self._expect(TokenKind.SEMI, "do-while")
        return ast.DoWhile(body, cond, loc)

    # -- expressions ------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_assignment_expr()

    def _parse_assignment_expr(self) -> ast.Expr:
        left = self._parse_conditional_expr()
        token = self._peek()
        if token.kind in _ASSIGN_OPS:
            self._advance()
            value = self._parse_assignment_expr()
            return ast.Assign(_ASSIGN_OPS[token.kind], left, value, token.location)
        return left

    def _parse_conditional_expr(self) -> ast.Expr:
        cond = self._parse_binary_expr(0)
        if self._at(TokenKind.QUESTION):
            loc = self._advance().location
            then_expr = self._parse_assignment_expr()
            self._expect(TokenKind.COLON, "conditional expression")
            else_expr = self._parse_conditional_expr()
            return ast.Ternary(cond, then_expr, else_expr, loc)
        return cond

    def _parse_binary_expr(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary_expr()
        while True:
            token = self._peek()
            entry = _BINARY_PRECEDENCE.get(token.kind)
            if entry is None or entry[0] < min_prec:
                return left
            prec, op = entry
            self._advance()
            right = self._parse_binary_expr(prec + 1)
            left = ast.Binary(op, left, right, token.location)

    def _parse_unary_expr(self) -> ast.Expr:
        token = self._peek()
        kind = token.kind
        if kind is TokenKind.PLUS_PLUS or kind is TokenKind.MINUS_MINUS:
            self._advance()
            operand = self._parse_unary_expr()
            return ast.IncDec(token.text, operand, is_postfix=False, location=token.location)
        if kind in (TokenKind.MINUS, TokenKind.PLUS, TokenKind.BANG, TokenKind.TILDE,
                    TokenKind.STAR, TokenKind.AMP):
            self._advance()
            operand = self._parse_unary_expr()
            return ast.Unary(token.text, operand, token.location)
        if kind is TokenKind.KW_SIZEOF:
            self._advance()
            if self._at(TokenKind.LPAREN) and self._is_type_at(1):
                self._advance()
                qtype = self._parse_full_type()
                self._expect(TokenKind.RPAREN, "sizeof")
                return ast.SizeofType(qtype, token.location)
            operand = self._parse_unary_expr()
            return ast.SizeofExpr(operand, token.location)
        if kind is TokenKind.LPAREN and self._is_type_at(1):
            self._advance()
            target = self._parse_full_type()
            self._expect(TokenKind.RPAREN, "cast")
            operand = self._parse_unary_expr()
            return ast.Cast(target, operand, token.location)
        return self._parse_postfix_expr()

    def _is_type_at(self, offset: int) -> bool:
        kind = self._peek(offset).kind
        return kind in _TYPE_START_KINDS

    def _parse_full_type(self) -> CType:
        """A type name inside a cast or sizeof: specifier plus stars."""
        ctype = self._parse_type_specifier()
        while self._accept(TokenKind.STAR):
            ctype = PointerType(ctype)
        return ctype

    def _parse_postfix_expr(self) -> ast.Expr:
        expr = self._parse_primary_expr()
        while True:
            token = self._peek()
            kind = token.kind
            if kind is TokenKind.LBRACKET:
                self._advance()
                index = self._parse_expr()
                self._expect(TokenKind.RBRACKET, "subscript")
                expr = ast.Index(expr, index, token.location)
            elif kind is TokenKind.DOT:
                self._advance()
                name = self._expect(TokenKind.IDENT, "member access").text
                expr = ast.Member(expr, name, is_arrow=False, location=token.location)
            elif kind is TokenKind.ARROW:
                self._advance()
                name = self._expect(TokenKind.IDENT, "member access").text
                expr = ast.Member(expr, name, is_arrow=True, location=token.location)
            elif kind is TokenKind.PLUS_PLUS or kind is TokenKind.MINUS_MINUS:
                self._advance()
                expr = ast.IncDec(token.text, expr, is_postfix=True, location=token.location)
            else:
                return expr

    def _parse_primary_expr(self) -> ast.Expr:
        token = self._peek()
        kind = token.kind
        if kind is TokenKind.INT_LIT or kind is TokenKind.CHAR_LIT:
            self._advance()
            return ast.IntLiteral(token.value, token.location)
        if kind is TokenKind.FLOAT_LIT:
            self._advance()
            return ast.FloatLiteral(token.value, token.location)
        if kind is TokenKind.STRING_LIT:
            self._advance()
            return ast.StringLiteral(token.value, token.location)
        if kind is TokenKind.IDENT:
            self._advance()
            if self._at(TokenKind.LPAREN):
                self._advance()
                args: list[ast.Expr] = []
                if not self._at(TokenKind.RPAREN):
                    while True:
                        args.append(self._parse_assignment_expr())
                        if not self._accept(TokenKind.COMMA):
                            break
                self._expect(TokenKind.RPAREN, "call")
                return ast.Call(token.value, args, token.location)
            return ast.Identifier(token.value, token.location)
        if kind is TokenKind.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN, "parenthesized expression")
            return expr
        raise ParseError(f"unexpected token {token.text or 'EOF'!r}", token.location)


def parse(source: str, filename: str = "<minic>") -> ast.Program:
    """Parse MiniC ``source`` into an (un-analyzed) :class:`ast.Program`."""
    tokens = tokenize(source, filename)
    return Parser(tokens).parse_program(source)
