"""Recursive-descent parser for MiniC.

The grammar is a compact C subset: struct definitions (including the
``typedef struct {...} NAME;`` idiom the ``nab`` port uses), global
variables, functions, the usual statements, and C expressions with standard
precedence.  ``#pragma`` tokens are attached to the statement that follows
them, which is how Regions Of Interest (``#pragma carmot roi``) and the
original OpenMP annotations enter the AST.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ParseError
from repro.lang import astnodes as ast
from repro.lang import types as ct
from repro.lang.lexer import tokenize
from repro.lang.pragmas import Pragma, parse_pragma
from repro.lang.tokens import Token, TokenKind

_TYPE_KEYWORDS = ("int", "float", "char", "void", "struct")

# Binary operator precedence, higher binds tighter.
_BINARY_PRECEDENCE: Dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")

#: Deepest nesting the parser accepts.  Each statement, assignment
#: expression and unary operand open at once counts one level, and so does
#: each operator of a binary chain.  Every level costs a few Python frames
#: here and in each later stage that walks the tree, so a program nested
#: exactly this deep still runs end to end at the default recursion limit.
MAX_NESTING = 160


def _nested(parse):
    """Count one nesting level while ``parse`` runs."""

    def nested(self, *args):
        self._enter()
        try:
            return parse(self, *args)
        finally:
            self._depth -= 1

    return nested


class Parser:
    """Parses a token stream into a :class:`repro.lang.astnodes.Program`."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0
        self._structs: Dict[str, ct.StructType] = {}
        self._typedefs: Dict[str, ct.Type] = {}
        self._depth = 0

    # -- token helpers ----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> Token:
        tok = self._tokens[self._index]
        if tok.kind is not TokenKind.EOF:
            self._index += 1
        return tok

    def _expect_punct(self, text: str) -> Token:
        tok = self._next()
        if not tok.is_punct(text):
            raise ParseError(f"expected {text!r}, got {tok}")
        return tok

    def _expect_keyword(self, text: str) -> Token:
        tok = self._next()
        if not tok.is_keyword(text):
            raise ParseError(f"expected keyword {text!r}, got {tok}")
        return tok

    def _expect_ident(self) -> Token:
        tok = self._next()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, got {tok}")
        return tok

    def _enter(self) -> None:
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels, got {self._peek()}"
            )

    def _accept_punct(self, text: str) -> bool:
        if self._peek().is_punct(text):
            self._next()
            return True
        return False

    # -- type parsing ------------------------------------------------------

    def _at_type(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        if tok.kind is TokenKind.KEYWORD and tok.value in _TYPE_KEYWORDS:
            return True
        return tok.kind is TokenKind.IDENT and tok.value in self._typedefs

    def _struct_type(self, name: str) -> ct.StructType:
        if name not in self._structs:
            self._structs[name] = ct.StructType(name)
        return self._structs[name]

    def _parse_base_type(self) -> ct.Type:
        tok = self._next()
        if tok.is_keyword("int"):
            base: ct.Type = ct.INT
        elif tok.is_keyword("float"):
            base = ct.FLOAT
        elif tok.is_keyword("char"):
            base = ct.CHAR
        elif tok.is_keyword("void"):
            base = ct.VOID
        elif tok.is_keyword("struct"):
            name = self._expect_ident()
            base = self._struct_type(str(name.value))
        elif tok.kind is TokenKind.IDENT and tok.value in self._typedefs:
            base = self._typedefs[str(tok.value)]
        else:
            raise ParseError(f"expected a type, got {tok}")
        return base

    def _parse_type(self) -> ct.Type:
        base = self._parse_base_type()
        while self._accept_punct("*"):
            base = ct.PointerType(base)
        return base

    def _parse_array_suffix(self, base: ct.Type) -> ct.Type:
        """Parse ``[N][M]...`` after a declarator name."""
        dims: List[int] = []
        while self._accept_punct("["):
            size_tok = self._next()
            if size_tok.kind is not TokenKind.INT_LIT:
                raise ParseError(f"array size must be an integer literal, got {size_tok}")
            dims.append(int(size_tok.value))  # type: ignore[arg-type]
            self._expect_punct("]")
        for dim in reversed(dims):
            base = ct.ArrayType(base, dim)
        return base

    # -- top level ----------------------------------------------------------

    def parse_program(self, filename: str = "<string>") -> ast.Program:
        structs: List[ast.StructDef] = []
        globals_: List[ast.GlobalVar] = []
        functions: List[ast.FunctionDef] = []
        first = self._peek()
        while self._peek().kind is not TokenKind.EOF:
            tok = self._peek()
            if tok.kind is TokenKind.PRAGMA:
                raise ParseError(f"pragma outside function body at {tok.pos}")
            if tok.is_keyword("typedef"):
                structs.append(self._parse_typedef())
                continue
            if tok.is_keyword("struct") and self._peek(2).is_punct("{"):
                structs.append(self._parse_struct_def())
                continue
            decl = self._parse_global_or_function()
            if isinstance(decl, ast.FunctionDef):
                functions.append(decl)
            else:
                globals_.append(decl)
        return ast.Program(first.pos, structs, globals_, functions)

    def _parse_struct_body(self, struct: ct.StructType) -> List[Tuple[str, ct.Type]]:
        self._expect_punct("{")
        fields: List[Tuple[str, ct.Type]] = []
        while not self._accept_punct("}"):
            ftype = self._parse_type()
            while True:
                fname = self._expect_ident()
                full = self._parse_array_suffix(ftype)
                fields.append((str(fname.value), full))
                if not self._accept_punct(","):
                    break
            self._expect_punct(";")
        struct.set_body(fields)
        return fields

    def _parse_struct_def(self) -> ast.StructDef:
        pos = self._expect_keyword("struct").pos
        name = str(self._expect_ident().value)
        struct = self._struct_type(name)
        fields = self._parse_struct_body(struct)
        self._expect_punct(";")
        return ast.StructDef(pos, name, fields)

    def _parse_typedef(self) -> ast.StructDef:
        pos = self._expect_keyword("typedef").pos
        self._expect_keyword("struct")
        tag: Optional[str] = None
        if self._peek().kind is TokenKind.IDENT and self._peek(1).is_punct("{"):
            tag = str(self._expect_ident().value)
        struct_name = tag if tag is not None else f"__anon_{pos.line}"
        struct = self._struct_type(struct_name)
        fields = self._parse_struct_body(struct)
        alias = str(self._expect_ident().value)
        self._expect_punct(";")
        self._typedefs[alias] = struct
        return ast.StructDef(pos, struct_name, fields)

    def _parse_global_or_function(self) -> object:
        pos = self._peek().pos
        base = self._parse_type()
        name = str(self._expect_ident().value)
        if self._peek().is_punct("("):
            return self._parse_function(pos, base, name)
        var_type = self._parse_array_suffix(base)
        init: Optional[ast.Expr] = None
        if self._accept_punct("="):
            init = self._parse_expr()
        self._expect_punct(";")
        return ast.GlobalVar(pos, var_type, name, init)

    def _parse_function(
        self, pos, return_type: ct.Type, name: str
    ) -> ast.FunctionDef:
        self._expect_punct("(")
        params: List[ast.Param] = []
        if not self._peek().is_punct(")"):
            if self._peek().is_keyword("void") and self._peek(1).is_punct(")"):
                self._next()
            else:
                while True:
                    ppos = self._peek().pos
                    ptype = self._parse_type()
                    pname = str(self._expect_ident().value)
                    ptype = ct.decay(self._parse_array_suffix(ptype))
                    params.append(ast.Param(ppos, ptype, pname))
                    if not self._accept_punct(","):
                        break
        self._expect_punct(")")
        if self._accept_punct(";"):
            return ast.FunctionDef(pos, return_type, name, params, None)
        body = self._parse_block()
        return ast.FunctionDef(pos, return_type, name, params, body)

    # -- statements ----------------------------------------------------------

    def _collect_pragmas(self) -> List[Pragma]:
        pragmas: List[Pragma] = []
        while self._peek().kind is TokenKind.PRAGMA:
            tok = self._next()
            pragmas.append(parse_pragma(str(tok.value)))
        return pragmas

    def _parse_block(self) -> ast.Block:
        pos = self._expect_punct("{").pos
        stmts: List[ast.Stmt] = []
        while not self._peek().is_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise ParseError(f"unterminated block starting at {pos}")
            stmts.append(self._parse_stmt())
        self._expect_punct("}")
        return ast.Block(pos, stmts)

    @_nested
    def _parse_stmt(self) -> ast.Stmt:
        pragmas = self._collect_pragmas()
        stmt = self._parse_stmt_inner()
        if pragmas:
            stmt.pragmas = pragmas
        return stmt

    def _parse_stmt_inner(self) -> ast.Stmt:
        tok = self._peek()
        if tok.is_punct("{"):
            return self._parse_block()
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("do"):
            return self._parse_do_while()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("return"):
            self._next()
            value = None if self._peek().is_punct(";") else self._parse_expr()
            self._expect_punct(";")
            return ast.Return(tok.pos, value)
        if tok.is_keyword("break"):
            self._next()
            self._expect_punct(";")
            return ast.Break(tok.pos)
        if tok.is_keyword("continue"):
            self._next()
            self._expect_punct(";")
            return ast.Continue(tok.pos)
        if self._at_type() and not self._peek(1).is_punct("("):
            return self._parse_var_decl()
        if tok.is_punct(";"):
            self._next()
            return ast.Block(tok.pos, [])
        expr = self._parse_expr()
        self._expect_punct(";")
        return ast.ExprStmt(tok.pos, expr)

    def _parse_var_decl(self) -> ast.Stmt:
        pos = self._peek().pos
        base = self._parse_type()
        decls: List[ast.Stmt] = []
        while True:
            name = str(self._expect_ident().value)
            var_type = self._parse_array_suffix(base)
            init: Optional[ast.Expr] = None
            if self._accept_punct("="):
                init = self._parse_assignment()
            decls.append(ast.VarDecl(pos, var_type, name, init))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        if len(decls) == 1:
            return decls[0]
        return ast.DeclGroup(pos, decls)

    def _parse_if(self) -> ast.Stmt:
        pos = self._expect_keyword("if").pos
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        then = self._parse_stmt()
        otherwise: Optional[ast.Stmt] = None
        if self._peek().is_keyword("else"):
            self._next()
            otherwise = self._parse_stmt()
        return ast.If(pos, cond, then, otherwise)

    def _parse_while(self) -> ast.Stmt:
        pos = self._expect_keyword("while").pos
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        body = self._parse_stmt()
        return ast.While(pos, cond, body)

    def _parse_do_while(self) -> ast.Stmt:
        pos = self._expect_keyword("do").pos
        body = self._parse_stmt()
        self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.DoWhile(pos, body, cond)

    def _parse_for(self) -> ast.Stmt:
        pos = self._expect_keyword("for").pos
        self._expect_punct("(")
        init: Optional[ast.Stmt] = None
        if not self._peek().is_punct(";"):
            if self._at_type():
                init = self._parse_var_decl()
            else:
                expr = self._parse_expr()
                self._expect_punct(";")
                init = ast.ExprStmt(pos, expr)
        else:
            self._next()
        cond: Optional[ast.Expr] = None
        if not self._peek().is_punct(";"):
            cond = self._parse_expr()
        self._expect_punct(";")
        step: Optional[ast.Expr] = None
        if not self._peek().is_punct(")"):
            step = self._parse_expr()
        self._expect_punct(")")
        body = self._parse_stmt()
        return ast.For(pos, init, cond, step, body)

    # -- expressions -----------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_assignment()

    @_nested
    def _parse_assignment(self) -> ast.Expr:
        lhs = self._parse_ternary()
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.value in _ASSIGN_OPS:
            self._next()
            rhs = self._parse_assignment()
            return ast.Assign(tok.pos, str(tok.value), lhs, rhs)
        return lhs

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._peek().is_punct("?"):
            pos = self._next().pos
            then = self._parse_expr()
            self._expect_punct(":")
            otherwise = self._parse_assignment()
            return ast.Cond(pos, cond, then, otherwise)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        lhs = self._parse_unary()
        depth = self._depth
        while True:
            tok = self._peek()
            prec = (_BINARY_PRECEDENCE.get(str(tok.value), 0)
                    if tok.kind is TokenKind.PUNCT else 0)
            if prec == 0 or prec <= min_prec:
                self._depth = depth
                return lhs
            self._enter()  # a chain nests its operands left-deep
            self._next()
            rhs = self._parse_binary(prec)
            lhs = ast.BinOp(tok.pos, str(tok.value), lhs, rhs)

    @_nested
    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.value in ("-", "+", "!", "~"):
            self._next()
            return ast.UnaryOp(tok.pos, str(tok.value), self._parse_unary())
        if tok.is_punct("*"):
            self._next()
            return ast.Deref(tok.pos, self._parse_unary())
        if tok.is_punct("&"):
            self._next()
            return ast.AddressOf(tok.pos, self._parse_unary())
        if tok.kind is TokenKind.PUNCT and tok.value in ("++", "--"):
            self._next()
            return ast.IncDec(tok.pos, str(tok.value), self._parse_unary(), True)
        if tok.is_keyword("sizeof"):
            self._next()
            self._expect_punct("(")
            if self._at_type():
                target: object = self._parse_type()
                target = self._parse_array_suffix(target)  # type: ignore[arg-type]
            else:
                target = self._parse_expr()
            self._expect_punct(")")
            return ast.SizeOf(tok.pos, target)  # type: ignore[arg-type]
        if tok.is_punct("(") and self._at_type(1):
            self._next()
            to_type = self._parse_type()
            self._expect_punct(")")
            return ast.Cast(tok.pos, to_type, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_punct("("):
                self._next()
                args: List[ast.Expr] = []
                if not self._peek().is_punct(")"):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                expr = ast.Call(tok.pos, expr, args)
            elif tok.is_punct("["):
                self._next()
                index = self._parse_expr()
                self._expect_punct("]")
                expr = ast.Index(tok.pos, expr, index)
            elif tok.is_punct("."):
                self._next()
                name = str(self._expect_ident().value)
                expr = ast.Member(tok.pos, expr, name, False)
            elif tok.is_punct("->"):
                self._next()
                name = str(self._expect_ident().value)
                expr = ast.Member(tok.pos, expr, name, True)
            elif tok.kind is TokenKind.PUNCT and tok.value in ("++", "--"):
                self._next()
                expr = ast.IncDec(tok.pos, str(tok.value), expr, False)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._next()
        if tok.kind is TokenKind.INT_LIT:
            return ast.IntLit(tok.pos, int(tok.value))  # type: ignore[arg-type]
        if tok.kind is TokenKind.CHAR_LIT:
            return ast.IntLit(tok.pos, int(tok.value))  # type: ignore[arg-type]
        if tok.kind is TokenKind.FLOAT_LIT:
            return ast.FloatLit(tok.pos, float(tok.value))  # type: ignore[arg-type]
        if tok.kind is TokenKind.STRING_LIT:
            return ast.StringLit(tok.pos, str(tok.value))
        if tok.is_keyword("NULL"):
            return ast.NullLit(tok.pos)
        if tok.kind is TokenKind.IDENT:
            return ast.VarRef(tok.pos, str(tok.value))
        if tok.is_punct("("):
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {tok} in expression")


def parse(source: str, filename: str = "<string>") -> ast.Program:
    """Parse MiniC source text into an AST."""
    return Parser(tokenize(source, filename)).parse_program(filename)
