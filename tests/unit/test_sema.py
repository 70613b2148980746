"""Unit tests for MiniC semantic analysis."""

import pytest

from repro.errors import SemanticError
from repro.lang import types as ct
from repro.lang.parser import parse
from repro.lang.sema import SymbolKind, analyze


def check(source):
    return analyze(parse(source))


class TestSymbolResolution:
    def test_local_resolution(self):
        result = check("void f() { int x; x = 1; }")
        info = result.functions["f"]
        assert info.locals[0].name == "x"
        assert info.locals[0].kind is SymbolKind.LOCAL

    def test_param_resolution(self):
        result = check("int f(int a) { return a; }")
        assert result.functions["f"].params[0].kind is SymbolKind.PARAM

    def test_global_resolution(self):
        result = check("int g;\nvoid f() { g = 2; }")
        assert result.globals["g"].kind is SymbolKind.GLOBAL

    def test_shadowing_in_nested_scope(self):
        check("void f() { int x; { int x; x = 1; } x = 2; }")

    def test_undeclared_name(self):
        with pytest.raises(SemanticError):
            check("void f() { y = 1; }")

    def test_redefinition_same_scope(self):
        with pytest.raises(SemanticError):
            check("void f() { int x; int x; }")

    def test_builtins_visible(self):
        check("void f() { char *p; p = malloc(8); free(p); }")

    def test_function_symbols(self):
        result = check("int g(int x) { return x; }\nvoid f() { g(1); }")
        assert result.functions["g"].symbol.kind is SymbolKind.FUNCTION


class TestTypeChecking:
    def test_arith_promotion(self):
        check("void f() { float y; int x; y = x + 1.5; }")

    def test_pointer_arith(self):
        check("void f(int *p) { int *q; q = p + 3; }")

    def test_pointer_difference(self):
        check("int f(int *p, int *q) { return p - q; }")

    def test_array_index(self):
        check("void f() { int a[4]; a[0] = 1; }")

    def test_struct_member(self):
        check("struct s { int v; };\nvoid f() { struct s x; x.v = 1; }")

    def test_arrow_member(self):
        check(
            "struct s { int v; };\n"
            "void f(struct s *p) { p->v = 1; }"
        )

    def test_missing_struct_field(self):
        with pytest.raises(SemanticError):
            check("struct s { int v; };\nvoid f(struct s *p) { p->w = 1; }")

    def test_return_type_mismatch(self):
        with pytest.raises(SemanticError):
            check("struct s { int v; };\nint f(struct s x) { return x; }")

    def test_void_return_with_value(self):
        with pytest.raises(SemanticError):
            check("void f() { return 3; }")

    def test_call_arity(self):
        with pytest.raises(SemanticError):
            check("int g(int x) { return x; }\nvoid f() { g(); }")

    def test_call_arg_type(self):
        with pytest.raises(SemanticError):
            check(
                "struct s { int v; };\n"
                "int g(int x) { return x; }\n"
                "void f(struct s y) { g(y); }"
            )

    def test_call_non_function(self):
        with pytest.raises(SemanticError):
            check("void f() { int x; x(1); }")

    def test_deref_non_pointer(self):
        with pytest.raises(SemanticError):
            check("void f() { int x; *x = 1; }")

    def test_index_non_pointer(self):
        with pytest.raises(SemanticError):
            check("void f() { int x; x[0] = 1; }")

    def test_assign_to_rvalue(self):
        with pytest.raises(SemanticError):
            check("void f() { 1 = 2; }")

    def test_assign_to_array(self):
        with pytest.raises(SemanticError):
            check("void f(int *p) { int a[3]; a = p; }")

    def test_modulo_requires_integers(self):
        with pytest.raises(SemanticError):
            check("void f() { float x; int y; y = x % 2; }")

    def test_null_assigns_to_pointer(self):
        check("void f() { int *p; p = NULL; }")

    def test_break_outside_loop(self):
        with pytest.raises(SemanticError):
            check("void f() { break; }")

    def test_continue_inside_loop_ok(self):
        check("void f() { while (1) { continue; } }")

    def test_void_variable_rejected(self):
        with pytest.raises(SemanticError):
            check("void f() { void x; }")

    def test_global_initializer_must_be_literal(self):
        with pytest.raises(SemanticError):
            check("int g = 1 + 2;")

    #: Two functions of one type, so that a conditional can pick one
    #: and call it through the resulting function pointer.
    POINTER_PAIR = ("int f(int a) { return a + 1; }\n"
                    "int g(int a) { return a * 2; }\n")

    def test_function_pointer_call(self):
        result = check(self.POINTER_PAIR + "int main() { int c = 1; "
                       "int x = 3; return (c ? &f : &g)(x); }")
        call = result.functions["main"].definition.body.stmts[-1].value
        assert call.ctype == ct.INT
        assert call.callee.ctype == ct.PointerType(
            ct.FunctionType(ct.INT, (ct.INT,)))

    def test_function_pointer_call_checks_its_arguments(self):
        with pytest.raises(SemanticError, match="call expects 1 args, got 2"):
            check(self.POINTER_PAIR + "int main() { int c = 1; "
                  "return (c ? &f : &g)(1, 2); }")

    def test_expression_ctype_filled(self):
        result = check("int f(int a) { return a + 2; }")
        ret = result.functions["f"].definition.body.stmts[0]
        assert ret.value.ctype == ct.INT

    def test_ternary_types(self):
        check("int f(int a, int b) { return a < b ? a : b; }")

    def test_ternary_mismatch(self):
        with pytest.raises(SemanticError):
            check(
                "struct s { int v; };\n"
                "int f(struct s x, int b) { return b ? x : b; }"
            )
