"""Semantic analysis for MiniC.

Resolves every name to a :class:`Symbol`, fills in ``ctype`` on every
expression, and enforces the (small) MiniC typing rules.  The analysis
annotates ``VarRef`` nodes with a ``symbol`` attribute; lowering relies on
those annotations, so :func:`analyze` must run before
:func:`repro.ir.lowering.lower_program`.
"""

from __future__ import annotations

import enum
import math
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import builtins_spec
from repro.errors import SemanticError
from repro.lang import astnodes as ast
from repro.lang import types as ct
from repro.lang.tokens import SourcePos


class SymbolKind(enum.Enum):
    LOCAL = "local"
    PARAM = "param"
    GLOBAL = "global"
    FUNCTION = "function"
    BUILTIN = "builtin"


@dataclass
class Symbol:
    """A resolved name.  ``uid`` is unique across the whole program."""

    name: str
    kind: SymbolKind
    ctype: ct.Type
    pos: Optional[SourcePos]
    uid: int

    @property
    def is_variable(self) -> bool:
        return self.kind in (SymbolKind.LOCAL, SymbolKind.PARAM, SymbolKind.GLOBAL)


@dataclass
class FunctionInfo:
    """Per-function semantic results."""

    definition: ast.FunctionDef
    symbol: Symbol
    locals: List[Symbol] = field(default_factory=list)
    params: List[Symbol] = field(default_factory=list)


@dataclass
class SemaResult:
    """Whole-program semantic results consumed by lowering."""

    program: ast.Program
    globals: Dict[str, Symbol]
    functions: Dict[str, FunctionInfo]


class _Scope:
    def __init__(self, parent: Optional["_Scope"]) -> None:
        self.parent = parent
        self.names: Dict[str, Symbol] = {}

    def define(self, symbol: Symbol) -> None:
        if symbol.name in self.names:
            raise SemanticError(f"redefinition of {symbol.name!r} at {symbol.pos}")
        self.names[symbol.name] = symbol

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class Analyzer:
    """Runs semantic analysis over a parsed program."""

    def __init__(self, program: ast.Program) -> None:
        self._program = program
        self._uid = itertools.count()
        self._globals = _Scope(None)
        self._functions: Dict[str, FunctionInfo] = {}
        self._current: Optional[FunctionInfo] = None
        self._loop_depth = 0

    def run(self) -> SemaResult:
        for name, spec in builtins_spec.BUILTINS.items():
            self._globals.define(
                Symbol(name, SymbolKind.BUILTIN, spec.function_type, None,
                       next(self._uid))
            )
        for gvar in self._program.globals:
            self._check_global(gvar)
        for func in self._program.functions:
            ftype = ct.FunctionType(
                func.return_type, tuple(p.param_type for p in func.params)
            )
            existing = self._globals.lookup(func.name)
            if existing is not None:
                # Forward declaration + definition: signatures must match
                # and at most one may carry a body.
                if (existing.kind is not SymbolKind.FUNCTION
                        or existing.ctype != ftype):
                    raise SemanticError(
                        f"conflicting declarations of {func.name!r} at "
                        f"{func.pos}"
                    )
                info = self._functions[func.name]
                if info.definition.body is not None and func.body is not None:
                    raise SemanticError(
                        f"redefinition of function {func.name!r} at {func.pos}"
                    )
                if func.body is not None:
                    info.definition = func
                continue
            sym = Symbol(func.name, SymbolKind.FUNCTION, ftype, func.pos,
                         next(self._uid))
            self._globals.define(sym)
            self._functions[func.name] = FunctionInfo(func, sym)
        for func in self._program.functions:
            if func.body is not None:
                self._check_function(self._functions[func.name])
        return SemaResult(
            self._program,
            {
                name: sym
                for name, sym in self._globals.names.items()
                if sym.kind is SymbolKind.GLOBAL
            },
            self._functions,
        )

    # -- declarations -------------------------------------------------------

    def _check_global(self, gvar: ast.GlobalVar) -> None:
        if isinstance(gvar.var_type, ct.VoidType):
            raise SemanticError(f"global {gvar.name!r} cannot have type void")
        sym = Symbol(gvar.name, SymbolKind.GLOBAL, gvar.var_type, gvar.pos,
                     next(self._uid))
        self._globals.define(sym)
        if gvar.init is not None:
            if not isinstance(gvar.init, (ast.IntLit, ast.FloatLit, ast.NullLit)):
                raise SemanticError(
                    f"global initializer for {gvar.name!r} must be a literal"
                )
            if (isinstance(gvar.init, ast.FloatLit)
                    and not isinstance(gvar.var_type, ct.FloatType)
                    and not math.isfinite(gvar.init.value)):
                raise SemanticError(
                    f"global initializer for {gvar.name!r} at {gvar.pos} "
                    f"is not a finite number"
                )
            self._check_expr(gvar.init, self._globals)

    def _check_function(self, info: FunctionInfo) -> None:
        self._current = info
        scope = _Scope(self._globals)
        for param in info.definition.params:
            sym = Symbol(param.name, SymbolKind.PARAM, param.param_type,
                         param.pos, next(self._uid))
            scope.define(sym)
            info.params.append(sym)
            setattr(param, "symbol", sym)
        assert info.definition.body is not None
        self._check_block(info.definition.body, scope)
        self._current = None

    # -- statements -----------------------------------------------------------

    def _check_block(self, block: ast.Block, parent: _Scope) -> None:
        scope = _Scope(parent)
        for stmt in block.stmts:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, scope)
        elif isinstance(stmt, ast.VarDecl):
            self._check_var_decl(stmt, scope)
        elif isinstance(stmt, ast.DeclGroup):
            for decl in stmt.decls:
                self._check_var_decl(decl, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            self._require_scalar(self._check_expr(stmt.cond, scope), stmt.pos)
            self._check_stmt(stmt.then, scope)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise, scope)
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            self._require_scalar(self._check_expr(stmt.cond, scope), stmt.pos)
            self._loop_depth += 1
            self._check_stmt(stmt.body, scope)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.For):
            inner = _Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._require_scalar(self._check_expr(stmt.cond, inner), stmt.pos)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner)
            self._loop_depth += 1
            self._check_stmt(stmt.body, inner)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.Return):
            assert self._current is not None
            expected = self._current.definition.return_type
            if stmt.value is None:
                if not isinstance(expected, ct.VoidType):
                    raise SemanticError(f"missing return value at {stmt.pos}")
            else:
                actual = self._check_expr(stmt.value, scope)
                if isinstance(expected, ct.VoidType):
                    raise SemanticError(f"void function returns a value at {stmt.pos}")
                if not ct.assignable(expected, actual):
                    raise SemanticError(
                        f"cannot return {actual} from function returning "
                        f"{expected} at {stmt.pos}"
                    )
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self._loop_depth == 0:
                raise SemanticError(f"{type(stmt).__name__.lower()} outside loop "
                                    f"at {stmt.pos}")
        else:
            raise SemanticError(f"unhandled statement {type(stmt).__name__}")

    def _check_var_decl(self, stmt: ast.VarDecl, scope: _Scope) -> None:
        if isinstance(stmt.var_type, ct.VoidType):
            raise SemanticError(f"variable {stmt.name!r} cannot have type void")
        sym = Symbol(stmt.name, SymbolKind.LOCAL, stmt.var_type, stmt.pos,
                     next(self._uid))
        scope.define(sym)
        assert self._current is not None
        self._current.locals.append(sym)
        setattr(stmt, "symbol", sym)
        if stmt.init is not None:
            init_type = self._check_expr(stmt.init, scope)
            if not ct.assignable(stmt.var_type, init_type):
                raise SemanticError(
                    f"cannot initialize {stmt.var_type} {stmt.name!r} with "
                    f"{init_type} at {stmt.pos}"
                )

    # -- expressions --------------------------------------------------------------

    def _require_scalar(self, t: ct.Type, pos: SourcePos) -> None:
        if not ct.decay(t).is_scalar:
            raise SemanticError(f"expected a scalar condition, got {t} at {pos}")

    def _is_lvalue(self, expr: ast.Expr) -> bool:
        return isinstance(expr, (ast.VarRef, ast.Deref, ast.Index, ast.Member))

    def _check_expr(self, expr: ast.Expr, scope: _Scope) -> ct.Type:
        result = self._check_expr_inner(expr, scope)
        expr.ctype = result
        return result

    def _check_expr_inner(self, expr: ast.Expr, scope: _Scope) -> ct.Type:
        if isinstance(expr, ast.IntLit):
            return ct.INT
        if isinstance(expr, ast.FloatLit):
            return ct.FLOAT
        if isinstance(expr, ast.StringLit):
            return ct.PointerType(ct.CHAR)
        if isinstance(expr, ast.NullLit):
            return ct.PointerType(ct.CHAR)
        if isinstance(expr, ast.VarRef):
            sym = scope.lookup(expr.name)
            if sym is None:
                raise SemanticError(f"use of undeclared name {expr.name!r} at {expr.pos}")
            setattr(expr, "symbol", sym)
            return sym.ctype
        if isinstance(expr, ast.BinOp):
            return self._check_binop(expr, scope)
        if isinstance(expr, ast.UnaryOp):
            operand = ct.decay(self._check_expr(expr.operand, scope))
            if expr.op in ("-", "+"):
                if not ct.is_arithmetic(operand):
                    raise SemanticError(f"unary {expr.op} needs arithmetic operand "
                                        f"at {expr.pos}")
                return operand
            if expr.op == "!":
                self._require_scalar(operand, expr.pos)
                return ct.INT
            if expr.op == "~":
                if not ct.is_integer(operand):
                    raise SemanticError(f"~ needs an integer operand at {expr.pos}")
                return ct.INT
            raise SemanticError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, ast.Assign):
            return self._check_assign(expr, scope)
        if isinstance(expr, ast.IncDec):
            target = self._check_expr(expr.target, scope)
            if not self._is_lvalue(expr.target):
                raise SemanticError(f"{expr.op} needs an lvalue at {expr.pos}")
            if not (ct.is_arithmetic(target) or isinstance(target, ct.PointerType)):
                raise SemanticError(f"{expr.op} needs arithmetic/pointer operand "
                                    f"at {expr.pos}")
            return target
        if isinstance(expr, ast.Call):
            return self._check_call(expr, scope)
        if isinstance(expr, ast.Index):
            base = ct.decay(self._check_expr(expr.base, scope))
            index = ct.decay(self._check_expr(expr.index, scope))
            if not isinstance(base, ct.PointerType):
                raise SemanticError(f"cannot index non-pointer {base} at {expr.pos}")
            if not ct.is_integer(index):
                raise SemanticError(f"array index must be integer at {expr.pos}")
            return base.pointee
        if isinstance(expr, ast.Member):
            base = self._check_expr(expr.base, scope)
            if expr.arrow:
                base = ct.decay(base)
                if not isinstance(base, ct.PointerType):
                    raise SemanticError(f"-> on non-pointer {base} at {expr.pos}")
                base = base.pointee
            if not isinstance(base, ct.StructType):
                raise SemanticError(f"member access on non-struct {base} at {expr.pos}")
            return base.field_type(expr.name)
        if isinstance(expr, ast.AddressOf):
            operand = self._check_expr(expr.operand, scope)
            if isinstance(expr.operand, ast.VarRef):
                sym = getattr(expr.operand, "symbol")
                if sym.kind in (SymbolKind.FUNCTION, SymbolKind.BUILTIN):
                    return ct.PointerType(sym.ctype)
            if not self._is_lvalue(expr.operand):
                raise SemanticError(f"& needs an lvalue at {expr.pos}")
            return ct.PointerType(operand)
        if isinstance(expr, ast.Deref):
            operand = ct.decay(self._check_expr(expr.operand, scope))
            if not isinstance(operand, ct.PointerType):
                raise SemanticError(f"cannot dereference {operand} at {expr.pos}")
            return operand.pointee
        if isinstance(expr, ast.SizeOf):
            if isinstance(expr.target, ast.Expr):
                self._check_expr(expr.target, scope)
            return ct.INT
        if isinstance(expr, ast.Cast):
            self._check_expr(expr.operand, scope)
            return expr.to_type
        if isinstance(expr, ast.Cond):
            self._require_scalar(self._check_expr(expr.cond, scope), expr.pos)
            then = ct.decay(self._check_expr(expr.then, scope))
            other = ct.decay(self._check_expr(expr.otherwise, scope))
            if ct.is_arithmetic(then) and ct.is_arithmetic(other):
                return ct.common_arithmetic_type(then, other)
            if then == other:
                return then
            if isinstance(then, ct.PointerType) and isinstance(other, ct.PointerType):
                return then
            raise SemanticError(f"incompatible ternary arms {then} / {other} "
                                f"at {expr.pos}")
        raise SemanticError(f"unhandled expression {type(expr).__name__}")

    def _check_binop(self, expr: ast.BinOp, scope: _Scope) -> ct.Type:
        lhs = ct.decay(self._check_expr(expr.lhs, scope))
        rhs = ct.decay(self._check_expr(expr.rhs, scope))
        op = expr.op
        if op in ("&&", "||"):
            self._require_scalar(lhs, expr.pos)
            self._require_scalar(rhs, expr.pos)
            return ct.INT
        if op in ("==", "!=", "<", ">", "<=", ">="):
            if ct.is_arithmetic(lhs) and ct.is_arithmetic(rhs):
                return ct.INT
            if isinstance(lhs, ct.PointerType) or isinstance(rhs, ct.PointerType):
                return ct.INT
            raise SemanticError(f"cannot compare {lhs} and {rhs} at {expr.pos}")
        if op in ("+", "-"):
            if isinstance(lhs, ct.PointerType) and ct.is_integer(rhs):
                return lhs
            if op == "+" and ct.is_integer(lhs) and isinstance(rhs, ct.PointerType):
                return rhs
            if op == "-" and isinstance(lhs, ct.PointerType) and lhs == rhs:
                return ct.INT
            return ct.common_arithmetic_type(lhs, rhs)
        if op in ("*", "/"):
            return ct.common_arithmetic_type(lhs, rhs)
        if op in ("%", "<<", ">>", "&", "|", "^"):
            if not (ct.is_integer(lhs) and ct.is_integer(rhs)):
                raise SemanticError(f"{op} needs integer operands at {expr.pos}")
            return ct.INT
        raise SemanticError(f"unknown binary operator {op!r}")

    def _check_assign(self, expr: ast.Assign, scope: _Scope) -> ct.Type:
        target = self._check_expr(expr.target, scope)
        value = self._check_expr(expr.value, scope)
        if not self._is_lvalue(expr.target):
            raise SemanticError(f"assignment target is not an lvalue at {expr.pos}")
        if isinstance(target, ct.ArrayType):
            raise SemanticError(f"cannot assign to array at {expr.pos}")
        if expr.op != "=":
            op = expr.op[:-1]
            decayed = ct.decay(target)
            if op in ("%", "<<", ">>", "&", "|", "^"):
                if not (ct.is_integer(decayed) and ct.is_integer(ct.decay(value))):
                    raise SemanticError(f"{expr.op} needs integers at {expr.pos}")
            elif isinstance(decayed, ct.PointerType):
                if op not in ("+", "-") or not ct.is_integer(ct.decay(value)):
                    raise SemanticError(f"bad pointer compound assign at {expr.pos}")
            elif not (ct.is_arithmetic(decayed) and ct.is_arithmetic(ct.decay(value))):
                raise SemanticError(f"{expr.op} needs arithmetic operands at {expr.pos}")
            return target
        if not ct.assignable(target, value):
            raise SemanticError(f"cannot assign {value} to {target} at {expr.pos}")
        return target

    def _check_call(self, expr: ast.Call, scope: _Scope) -> ct.Type:
        callee_type = self._check_expr(expr.callee, scope)
        ftype: Optional[ct.FunctionType] = None
        if isinstance(callee_type, ct.FunctionType):
            ftype = callee_type
        else:
            decayed = ct.decay(callee_type)
            if isinstance(decayed, ct.PointerType) and isinstance(
                decayed.pointee, ct.FunctionType
            ):
                ftype = decayed.pointee
        if ftype is None:
            raise SemanticError(f"called object is not a function at {expr.pos}")
        if len(expr.args) != len(ftype.param_types):
            raise SemanticError(
                f"call expects {len(ftype.param_types)} args, got "
                f"{len(expr.args)} at {expr.pos}"
            )
        for arg, expected in zip(expr.args, ftype.param_types):
            actual = self._check_expr(arg, scope)
            if not ct.assignable(expected, actual):
                raise SemanticError(
                    f"argument type {actual} incompatible with {expected} "
                    f"at {arg.pos}"
                )
        return ftype.return_type


def analyze(program: ast.Program) -> SemaResult:
    """Run semantic analysis; raises :class:`SemanticError` on bad programs."""
    return Analyzer(program).run()
