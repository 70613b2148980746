"""AST-to-IR lowering.

Lowering is deliberately *naive*, mirroring CARMOT's use of clang without
optimizations (§4.4): every source variable — including loop counters —
receives an ``alloca`` slot and every use is an explicit load/store, so the
IR retains a reversible mapping onto source PSEs.  The PSEC-specific
optimizations in :mod:`repro.compiler` later claw back the cost where that
is provably safe.

ROI handling: a ``#pragma carmot roi`` on a loop statement wraps the *body*
of the loop (each iteration is one dynamic invocation, the shape Figure 1
uses); on any other statement it wraps that statement.  ``roi.begin`` /
``roi.end`` markers are emitted on every path out of the region, including
``break``/``continue``/``return``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.errors import LoweringError
from repro.lang import astnodes as ast
from repro.lang import types as ct
from repro.lang.pragmas import CarmotRoi, OmpPragma
from repro.lang.sema import SemaResult, Symbol, SymbolKind
from repro.ir.instructions import (
    AddrOffset,
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Instr,
    Jump,
    Load,
    OmpBarrier,
    OmpRegionBegin,
    OmpRegionEnd,
    Ret,
    RoiBegin,
    RoiEnd,
    RoiReset,
    SourceLoc,
    Store,
    Temp,
    VarInfo,
)
from repro.ir.module import Block, Function, GlobalVariable, Module, OmpLoopInfo, RoiInfo
from repro.ir.values import Const, FunctionRef, GlobalRef, Value

_CMP_BY_PUNCT = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
_ARITH_BY_PUNCT = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "rem",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "shl",
    ">>": "shr",
}


def lower_program(sema: SemaResult, module_name: str = "module") -> Module:
    """Lower a semantically-checked program into an IR module."""
    return _ModuleLowerer(sema, module_name).run()


class _LoopFrame:
    def __init__(self, break_target: Block, continue_target: Block, roi_depth: int):
        self.break_target = break_target
        self.continue_target = continue_target
        self.roi_depth = roi_depth


class _ModuleLowerer:
    def __init__(self, sema: SemaResult, module_name: str) -> None:
        self._sema = sema
        self._module = Module(module_name)
        self._string_counter = itertools.count()
        self._string_uids = itertools.count(1_000_000)

    def run(self) -> Module:
        for name, symbol in self._sema.globals.items():
            var = VarInfo(symbol.uid, name, "global", symbol.ctype,
                          SourceLoc.of(symbol.pos) if symbol.pos else None)
            init = None
            gdecl = next(g for g in self._sema.program.globals if g.name == name)
            if gdecl.init is not None:
                if isinstance(gdecl.init, ast.IntLit):
                    init = gdecl.init.value
                elif isinstance(gdecl.init, ast.FloatLit):
                    init = gdecl.init.value
                elif isinstance(gdecl.init, ast.NullLit):
                    init = 0
            self._module.globals[name] = GlobalVariable(name, symbol.ctype, var, init)
        for fname, info in self._sema.functions.items():
            if info.definition.body is None:
                continue
            ftype = info.symbol.ctype
            assert isinstance(ftype, ct.FunctionType)
            function = Function(fname, ftype)
            self._module.add_function(function)
            _FunctionLowerer(self, function, info).run()
        return self._module

    @property
    def module(self) -> Module:
        return self._module

    def intern_string(self, text: str) -> GlobalRef:
        name = f".str{next(self._string_counter)}"
        arr_type = ct.ArrayType(ct.CHAR, len(text) + 1)
        var = VarInfo(next(self._string_uids), name, "global", arr_type)
        self._module.globals[name] = GlobalVariable(name, arr_type, var, text)
        return GlobalRef(name, ct.PointerType(arr_type))


class _FunctionLowerer:
    """Lowers one function body."""

    def __init__(self, parent: _ModuleLowerer, function: Function, info) -> None:
        self._parent = parent
        self._module = parent.module
        self._fn = function
        self._info = info
        self._block: Block = function.new_block("entry")
        self._addr_of_uid: Dict[int, Value] = {}
        self._loop_stack: List[_LoopFrame] = []
        self._roi_stack: List[RoiInfo] = []

    # -- low-level emission helpers ---------------------------------------

    def _emit(self, instr: Instr) -> Instr:
        if self._block.is_terminated:
            # Dead code after return/break: park it in a fresh unreachable
            # block so lowering stays simple; it is pruned afterwards.
            self._block = self._fn.new_block("dead")
        self._block.append(instr)
        return instr

    def _temp(self, ty: ct.Type) -> Temp:
        return Temp(self._fn.new_temp_name(), ty)

    def _switch_to(self, block: Block) -> None:
        self._block = block

    def _jump(self, target: Block, loc: Optional[SourceLoc] = None) -> None:
        if not self._block.is_terminated:
            self._block.append(Jump(target, loc))

    def _branch(self, cond: Value, if_true: Block, if_false: Block,
                loc: Optional[SourceLoc] = None) -> None:
        if not self._block.is_terminated:
            self._block.append(Branch(cond, if_true, if_false, loc))

    def _loc(self, node: ast.Node) -> SourceLoc:
        return SourceLoc.of(node.pos)

    # -- run ----------------------------------------------------------------

    def run(self) -> None:
        defn = self._info.definition
        slots = []
        for param in defn.params:
            symbol: Symbol = getattr(param, "symbol")
            var = VarInfo(symbol.uid, symbol.name, "param", symbol.ctype,
                          self._loc(param))
            self._fn.param_vars.append(var)
            slot = self._temp(ct.PointerType(symbol.ctype))
            alloca = Alloca(slot, symbol.ctype, var, self._loc(param))
            self._emit(alloca)
            self._fn.var_allocas[symbol.uid] = alloca
            self._addr_of_uid[symbol.uid] = slot
            slots.append((slot, var, param))
        for index, (slot, var, param) in enumerate(slots):
            incoming = Temp(f"arg{index}", var.ty)
            self._emit(Store(incoming, slot, var, self._loc(param)))
        assert defn.body is not None
        self._lower_block(defn.body)
        if not self._block.is_terminated:
            default: Optional[Value] = None
            if not isinstance(defn.return_type, ct.VoidType):
                default = Const(0, ct.INT)
                if isinstance(defn.return_type, ct.FloatType):
                    default = Const(0.0, ct.FLOAT)
            self._emit(Ret(default, self._loc(defn)))
        self._fn.remove_unreachable_blocks()

    # -- statements ----------------------------------------------------------

    def _lower_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        carmot = [p for p in stmt.pragmas if isinstance(p, CarmotRoi)]
        omp = [p for p in stmt.pragmas if isinstance(p, OmpPragma)]
        if carmot:
            self._lower_roi_stmt(stmt, carmot[0], omp)
            return
        if omp:
            self._lower_omp_stmt(stmt, omp)
            return
        self._lower_plain_stmt(stmt)

    def _lower_plain_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            self._lower_var_decl(stmt)
        elif isinstance(stmt, ast.DeclGroup):
            for decl in stmt.decls:
                self._lower_var_decl(decl)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.Break):
            self._lower_break(stmt)
        elif isinstance(stmt, ast.Continue):
            self._lower_continue(stmt)
        else:
            raise LoweringError(f"unhandled statement {type(stmt).__name__}")

    def _lower_var_decl(self, stmt: ast.VarDecl) -> None:
        symbol: Symbol = getattr(stmt, "symbol")
        var = VarInfo(symbol.uid, symbol.name, "local", symbol.ctype, self._loc(stmt))
        slot = self._temp(ct.PointerType(symbol.ctype))
        alloca = Alloca(slot, symbol.ctype, var, self._loc(stmt))
        # All allocas live in the entry block, after existing allocas, so
        # that one stack frame layout covers the whole function.
        entry = self._fn.entry
        index = 0
        while index < len(entry.instrs) and isinstance(entry.instrs[index], Alloca):
            index += 1
        entry.instrs.insert(index, alloca)
        self._fn.var_allocas[symbol.uid] = alloca
        self._addr_of_uid[symbol.uid] = slot
        if stmt.init is not None:
            value = self._lower_expr(stmt.init)
            value = self._coerce(value, symbol.ctype, self._loc(stmt))
            self._emit(Store(value, slot, var, self._loc(stmt)))

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._lower_expr(stmt.cond)
        then_block = self._fn.new_block("then")
        join_block = self._fn.new_block("join")
        else_block = self._fn.new_block("else") if stmt.otherwise else join_block
        self._branch(cond, then_block, else_block, self._loc(stmt))
        self._switch_to(then_block)
        self._lower_stmt(stmt.then)
        self._jump(join_block)
        if stmt.otherwise is not None:
            self._switch_to(else_block)
            self._lower_stmt(stmt.otherwise)
            self._jump(join_block)
        self._switch_to(join_block)

    def _lower_while(self, stmt: ast.While, roi: Optional[RoiInfo] = None) -> None:
        if roi is None:
            roi = self._detect_body_roi(stmt.body, None, self._loc(stmt))
        head = self._fn.new_block("while.head")
        body = self._fn.new_block("while.body")
        exit_block = self._fn.new_block("while.exit")
        self._jump(head)
        self._switch_to(head)
        cond = self._lower_expr(stmt.cond)
        self._branch(cond, body, exit_block, self._loc(stmt))
        self._switch_to(body)
        self._lower_loop_body(stmt.body, head, exit_block, roi, self._loc(stmt))
        self._jump(head)
        self._switch_to(exit_block)

    def _lower_do_while(self, stmt: ast.DoWhile, roi: Optional[RoiInfo] = None) -> None:
        if roi is None:
            roi = self._detect_body_roi(stmt.body, None, self._loc(stmt))
        body = self._fn.new_block("do.body")
        cond_block = self._fn.new_block("do.cond")
        exit_block = self._fn.new_block("do.exit")
        self._jump(body)
        self._switch_to(body)
        self._lower_loop_body(stmt.body, cond_block, exit_block, roi, self._loc(stmt))
        self._jump(cond_block)
        self._switch_to(cond_block)
        cond = self._lower_expr(stmt.cond)
        self._branch(cond, body, exit_block, self._loc(stmt))
        self._switch_to(exit_block)

    def _lower_for(self, stmt: ast.For, roi: Optional[RoiInfo] = None) -> None:
        if stmt.init is not None:
            self._lower_plain_stmt(stmt.init)
        if roi is None:
            roi = self._detect_body_roi(stmt.body,
                                        self._for_induction_var(stmt),
                                        self._loc(stmt))
        head = self._fn.new_block("for.head")
        body = self._fn.new_block("for.body")
        step_block = self._fn.new_block("for.step")
        exit_block = self._fn.new_block("for.exit")
        self._jump(head)
        self._switch_to(head)
        if stmt.cond is not None:
            cond = self._lower_expr(stmt.cond)
            self._branch(cond, body, exit_block, self._loc(stmt))
        else:
            self._jump(body)
        self._switch_to(body)
        ind = self._for_induction_var(stmt)
        self._lower_loop_body(stmt.body, step_block, exit_block, roi,
                              self._loc(stmt), ind)
        self._jump(step_block)
        self._switch_to(step_block)
        if stmt.step is not None:
            self._lower_expr(stmt.step)
        self._jump(head)
        self._switch_to(exit_block)

    def _lower_loop_body(
        self,
        body: ast.Stmt,
        continue_target: Block,
        break_target: Block,
        roi: Optional[RoiInfo],
        loc: SourceLoc,
        induction_var: Optional[VarInfo] = None,
    ) -> None:
        frame = _LoopFrame(break_target, continue_target, len(self._roi_stack))
        self._loop_stack.append(frame)
        if roi is not None:
            self._emit(RoiBegin(roi.roi_id, loc))
            self._roi_stack.append(roi)
        self._lower_stmt(body)
        if roi is not None:
            self._emit(RoiEnd(roi.roi_id, loc))
            self._roi_stack.pop()
        self._loop_stack.pop()

    def _end_rois_down_to(self, depth: int, loc: SourceLoc) -> None:
        for roi in reversed(self._roi_stack[depth:]):
            self._emit(RoiEnd(roi.roi_id, loc))

    def _lower_return(self, stmt: ast.Return) -> None:
        value: Optional[Value] = None
        if stmt.value is not None:
            value = self._lower_expr(stmt.value)
            value = self._coerce(value, self._info.definition.return_type,
                                 self._loc(stmt))
        self._end_rois_down_to(0, self._loc(stmt))
        self._emit(Ret(value, self._loc(stmt)))

    def _lower_break(self, stmt: ast.Break) -> None:
        frame = self._loop_stack[-1]
        self._end_rois_down_to(frame.roi_depth, self._loc(stmt))
        self._emit(Jump(frame.break_target, self._loc(stmt)))

    def _lower_continue(self, stmt: ast.Continue) -> None:
        frame = self._loop_stack[-1]
        self._end_rois_down_to(frame.roi_depth, self._loc(stmt))
        self._emit(Jump(frame.continue_target, self._loc(stmt)))

    # -- pragma-wrapped statements --------------------------------------------

    def _lower_roi_stmt(self, stmt: ast.Stmt, pragma: CarmotRoi,
                        omp: List[OmpPragma]) -> None:
        roi = self._module.new_roi(
            pragma.name or "", pragma.abstraction, self._fn.name, stmt.pos
        )
        roi.original_omp = list(omp)
        if isinstance(stmt, (ast.For, ast.While, ast.DoWhile)):
            roi.is_loop_body = True
            if isinstance(stmt, ast.For):
                roi.induction_var = self._for_induction_var(stmt)
            self._register_omp_loops(omp, stmt, roi)
            # Each entry of the loop starts a fresh PSEC epoch (§4.2).
            self._emit(RoiReset(roi.roi_id, self._loc(stmt)))
            if isinstance(stmt, ast.For):
                self._lower_for(stmt, roi)
            elif isinstance(stmt, ast.While):
                self._lower_while(stmt, roi)
            else:
                self._lower_do_while(stmt, roi)
            return
        self._register_omp_loops(omp, stmt, roi)
        self._emit(RoiBegin(roi.roi_id, self._loc(stmt)))
        self._roi_stack.append(roi)
        self._lower_plain_stmt(stmt)
        self._roi_stack.pop()
        self._emit(RoiEnd(roi.roi_id, self._loc(stmt)))

    def _detect_body_roi(self, body: ast.Stmt,
                         induction: Optional[VarInfo],
                         loc: SourceLoc) -> Optional[RoiInfo]:
        """Recognise the Figure 1 shape: a ``carmot roi`` pragma on the loop
        body (or on its sole inner statement) makes each iteration one
        dynamic invocation.  Emits the epoch reset in the preheader and
        strips the pragma so body lowering proceeds plainly."""
        inner: ast.Stmt = body
        while True:
            if isinstance(inner, (ast.For, ast.While, ast.DoWhile)):
                # A pragma'd loop statement is its *own* ROI (each of its
                # iterations is an invocation), not this loop's body-ROI.
                return None
            carmot = [p for p in inner.pragmas if isinstance(p, CarmotRoi)]
            if carmot:
                pragma = carmot[0]
                roi = self._module.new_roi(
                    pragma.name or "", pragma.abstraction, self._fn.name,
                    inner.pos,
                )
                omp = [p for p in inner.pragmas if isinstance(p, OmpPragma)]
                roi.original_omp = list(omp)
                roi.is_loop_body = True
                roi.induction_var = induction
                self._register_omp_loops(omp, inner, roi)
                inner.pragmas = [
                    p for p in inner.pragmas
                    if not isinstance(p, CarmotRoi)
                    and not (isinstance(p, OmpPragma)
                             and p.directive in ("parallel for", "parallel"))
                ]
                self._emit(RoiReset(roi.roi_id, loc))
                return roi
            if isinstance(inner, ast.Block) and len(inner.stmts) == 1:
                inner = inner.stmts[0]
                continue
            return None

    def _register_omp_loops(self, omp: List[OmpPragma], stmt: ast.Stmt,
                            roi: Optional[RoiInfo]) -> None:
        for pragma in omp:
            if pragma.directive in ("parallel for", "parallel"):
                self._module.omp_loops.append(
                    OmpLoopInfo(pragma, self._fn.name, self._loc(stmt),
                                roi.roi_id if roi else None)
                )

    def _for_induction_var(self, stmt: ast.For) -> Optional[VarInfo]:
        """Recognise the loop-governing induction variable of a simple for."""
        symbol: Optional[Symbol] = None
        if isinstance(stmt.init, ast.VarDecl):
            symbol = getattr(stmt.init, "symbol", None)
        elif isinstance(stmt.init, ast.ExprStmt) and isinstance(
            stmt.init.expr, ast.Assign
        ):
            target = stmt.init.expr.target
            if isinstance(target, ast.VarRef):
                symbol = getattr(target, "symbol", None)
        if symbol is None:
            return None
        step = stmt.step
        names_in_step: List[str] = []
        if isinstance(step, ast.IncDec) and isinstance(step.target, ast.VarRef):
            names_in_step.append(step.target.name)
        elif isinstance(step, ast.Assign) and isinstance(step.target, ast.VarRef):
            names_in_step.append(step.target.name)
        if symbol.name not in names_in_step:
            return None
        storage = "local" if symbol.kind is SymbolKind.LOCAL else "param"
        return VarInfo(symbol.uid, symbol.name, storage, symbol.ctype)

    def _lower_omp_stmt(self, stmt: ast.Stmt, omp: List[OmpPragma]) -> None:
        pragma = omp[0]
        directive = pragma.directive
        if directive in ("parallel for", "parallel"):
            # Original parallel loop without a carmot ROI on it: record the
            # site; the loop itself lowers normally.
            self._register_omp_loops(omp, stmt, None)
            self._lower_plain_stmt(stmt)
            return
        if directive == "barrier":
            self._emit(OmpBarrier(self._loc(stmt)))
            self._lower_plain_stmt(stmt)
            return
        if directive in ("critical", "ordered", "task", "section", "master",
                         "parallel sections"):
            kind = directive.replace(" ", "_")
            region = self._module.new_omp_region(kind, pragma, self._fn.name,
                                                 stmt.pos)
            self._emit(OmpRegionBegin(kind, region.region_id, self._loc(stmt)))
            self._lower_plain_stmt(stmt)
            self._emit(OmpRegionEnd(kind, region.region_id, self._loc(stmt)))
            return
        raise LoweringError(f"unsupported omp directive {directive!r}")

    # -- expressions: addresses --------------------------------------------------

    def _lower_address(self, expr: ast.Expr) -> Tuple[Value, Optional[VarInfo]]:
        """Lower an lvalue expression to (address value, source var if any)."""
        if isinstance(expr, ast.VarRef):
            symbol: Symbol = getattr(expr, "symbol")
            if symbol.kind in (SymbolKind.FUNCTION, SymbolKind.BUILTIN):
                raise LoweringError(f"cannot take function {symbol.name} as lvalue")
            if symbol.kind is SymbolKind.GLOBAL:
                gvar = self._module.globals[symbol.name]
                return GlobalRef(symbol.name, ct.PointerType(symbol.ctype)), gvar.var
            addr = self._addr_of_uid[symbol.uid]
            alloca = self._fn.var_allocas[symbol.uid]
            return addr, alloca.var
        if isinstance(expr, ast.Deref):
            return self._lower_expr(expr.operand), None
        if isinstance(expr, ast.Index):
            base_type = ct.decay(expr.base.ctype)
            assert isinstance(base_type, ct.PointerType)
            elem = base_type.pointee
            base = self._lower_expr(expr.base)
            index = self._lower_expr(expr.index)
            result = self._temp(ct.PointerType(elem))
            self._emit(AddrOffset(result, base, index, elem.size(), 0,
                                  self._loc(expr)))
            return result, None
        if isinstance(expr, ast.Member):
            if expr.arrow:
                base = self._lower_expr(expr.base)
                base_type = ct.decay(expr.base.ctype)
                assert isinstance(base_type, ct.PointerType)
                struct = base_type.pointee
            else:
                base, _ = self._lower_address(expr.base)
                struct = expr.base.ctype
            assert isinstance(struct, ct.StructType)
            offset = struct.field_offset(expr.name)
            ftype = struct.field_type(expr.name)
            result = self._temp(ct.PointerType(ftype))
            self._emit(AddrOffset(result, base, Const(0, ct.INT), 0, offset,
                                  self._loc(expr)))
            return result, None
        raise LoweringError(f"expression is not an lvalue: {type(expr).__name__}")

    # -- expressions: values --------------------------------------------------------

    def _coerce(self, value: Value, to_type: ct.Type,
                loc: Optional[SourceLoc]) -> Value:
        to_type = ct.decay(to_type)
        from_type = value.ty
        if from_type == to_type:
            return value
        if ct.is_integer(from_type) and ct.is_integer(to_type):
            return value
        result = self._temp(to_type)
        self._emit(Cast(result, value, loc))
        return result

    def _lower_expr(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.IntLit):
            return Const(expr.value, ct.INT)
        if isinstance(expr, ast.FloatLit):
            return Const(expr.value, ct.FLOAT)
        if isinstance(expr, ast.NullLit):
            return Const(0, ct.PointerType(ct.CHAR))
        if isinstance(expr, ast.StringLit):
            ref = self._parent.intern_string(expr.value)
            result = self._temp(ct.PointerType(ct.CHAR))
            self._emit(AddrOffset(result, ref, Const(0, ct.INT), 0, 0,
                                  self._loc(expr)))
            return result
        if isinstance(expr, ast.VarRef):
            return self._lower_var_ref(expr)
        if isinstance(expr, ast.BinOp):
            return self._lower_binop(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Assign):
            return self._lower_assign(expr)
        if isinstance(expr, ast.IncDec):
            return self._lower_incdec(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        if isinstance(expr, (ast.Index, ast.Member, ast.Deref)):
            return self._lower_load_of(expr)
        if isinstance(expr, ast.AddressOf):
            operand = expr.operand
            if isinstance(operand, ast.VarRef):
                symbol: Symbol = getattr(operand, "symbol")
                if symbol.kind in (SymbolKind.FUNCTION, SymbolKind.BUILTIN):
                    return FunctionRef(symbol.name, symbol.ctype,
                                       symbol.kind is SymbolKind.BUILTIN)
            addr, _ = self._lower_address(operand)
            return addr
        if isinstance(expr, ast.SizeOf):
            target = expr.target
            size = target.size() if isinstance(target, ct.Type) else (
                target.ctype.size() if target.ctype else 8
            )
            return Const(size, ct.INT)
        if isinstance(expr, ast.Cast):
            value = self._lower_expr(expr.operand)
            return self._coerce(value, expr.to_type, self._loc(expr))
        if isinstance(expr, ast.Cond):
            return self._lower_ternary(expr)
        raise LoweringError(f"unhandled expression {type(expr).__name__}")

    def _lower_var_ref(self, expr: ast.VarRef) -> Value:
        symbol: Symbol = getattr(expr, "symbol")
        if symbol.kind in (SymbolKind.FUNCTION, SymbolKind.BUILTIN):
            return FunctionRef(symbol.name, symbol.ctype,
                               symbol.kind is SymbolKind.BUILTIN)
        addr, var = self._lower_address(expr)
        if isinstance(symbol.ctype, ct.ArrayType):
            # Array decays to a pointer to its first element.
            result = self._temp(ct.PointerType(symbol.ctype.element))
            self._emit(AddrOffset(result, addr, Const(0, ct.INT), 0, 0,
                                  self._loc(expr)))
            return result
        result = self._temp(symbol.ctype)
        self._emit(Load(result, addr, var, self._loc(expr)))
        return result

    def _lower_load_of(self, expr: ast.Expr) -> Value:
        addr, var = self._lower_address(expr)
        assert expr.ctype is not None
        if isinstance(expr.ctype, ct.ArrayType):
            result = self._temp(ct.PointerType(expr.ctype.element))
            self._emit(AddrOffset(result, addr, Const(0, ct.INT), 0, 0,
                                  self._loc(expr)))
            return result
        if isinstance(expr.ctype, ct.StructType):
            # Struct rvalues only appear as sources of member chains /
            # assignment of whole structs is not supported in MiniC.
            return addr
        result = self._temp(expr.ctype)
        self._emit(Load(result, addr, var, self._loc(expr)))
        return result

    def _lower_binop(self, expr: ast.BinOp) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            return self._lower_short_circuit(expr)
        lhs = self._lower_expr(expr.lhs)
        rhs = self._lower_expr(expr.rhs)
        loc = self._loc(expr)
        lt, rt = ct.decay(expr.lhs.ctype), ct.decay(expr.rhs.ctype)
        if op in _CMP_BY_PUNCT:
            if isinstance(lt, ct.FloatType) or isinstance(rt, ct.FloatType):
                lhs = self._coerce(lhs, ct.FLOAT, loc)
                rhs = self._coerce(rhs, ct.FLOAT, loc)
            result = self._temp(ct.INT)
            self._emit(BinOp(result, _CMP_BY_PUNCT[op], lhs, rhs, loc))
            return result
        # Pointer arithmetic.
        if isinstance(lt, ct.PointerType) and op in ("+", "-") and ct.is_integer(rt):
            index = rhs
            if op == "-":
                neg = self._temp(ct.INT)
                self._emit(BinOp(neg, "sub", Const(0, ct.INT), rhs, loc))
                index = neg
            result = self._temp(lt)
            self._emit(AddrOffset(result, lhs, index, lt.pointee.size(), 0, loc))
            return result
        if op == "+" and ct.is_integer(lt) and isinstance(rt, ct.PointerType):
            result = self._temp(rt)
            self._emit(AddrOffset(result, rhs, lhs, rt.pointee.size(), 0, loc))
            return result
        if op == "-" and isinstance(lt, ct.PointerType) and isinstance(rt, ct.PointerType):
            diff = self._temp(ct.INT)
            self._emit(BinOp(diff, "sub", lhs, rhs, loc))
            result = self._temp(ct.INT)
            self._emit(BinOp(result, "div", diff, Const(lt.pointee.size(), ct.INT),
                             loc))
            return result
        # Plain arithmetic with promotion.
        common = ct.common_arithmetic_type(lt, rt)
        lhs = self._coerce(lhs, common, loc)
        rhs = self._coerce(rhs, common, loc)
        result = self._temp(common)
        self._emit(BinOp(result, _ARITH_BY_PUNCT[op], lhs, rhs, loc))
        return result

    def _lower_short_circuit(self, expr: ast.BinOp) -> Value:
        loc = self._loc(expr)
        slot = self._temp(ct.PointerType(ct.INT))
        # Compiler temp, not a source PSE (var=None): instrumentation skips it.
        alloca = Alloca(slot, ct.INT, None, loc)
        entry = self._fn.entry
        index = 0
        while index < len(entry.instrs) and isinstance(entry.instrs[index], Alloca):
            index += 1
        entry.instrs.insert(index, alloca)
        rhs_block = self._fn.new_block("sc.rhs")
        done = self._fn.new_block("sc.done")
        short_block = self._fn.new_block("sc.short")
        lhs = self._lower_expr(expr.lhs)
        if expr.op == "&&":
            self._branch(lhs, rhs_block, short_block, loc)
            short_value = Const(0, ct.INT)
        else:
            self._branch(lhs, short_block, rhs_block, loc)
            short_value = Const(1, ct.INT)
        self._switch_to(short_block)
        self._emit(Store(short_value, slot, None, loc))
        self._jump(done)
        self._switch_to(rhs_block)
        rhs = self._lower_expr(expr.rhs)
        bool_rhs = self._temp(ct.INT)
        zero: Value = Const(0, ct.INT)
        if isinstance(ct.decay(expr.rhs.ctype), ct.FloatType):
            zero = Const(0.0, ct.FLOAT)
        self._emit(BinOp(bool_rhs, "ne", rhs, zero, loc))
        self._emit(Store(bool_rhs, slot, None, loc))
        self._jump(done)
        self._switch_to(done)
        result = self._temp(ct.INT)
        self._emit(Load(result, slot, None, loc))
        return result

    def _lower_ternary(self, expr: ast.Cond) -> Value:
        loc = self._loc(expr)
        assert expr.ctype is not None
        result_type = ct.decay(expr.ctype)
        slot = self._temp(ct.PointerType(result_type))
        alloca = Alloca(slot, result_type, None, loc)
        entry = self._fn.entry
        index = 0
        while index < len(entry.instrs) and isinstance(entry.instrs[index], Alloca):
            index += 1
        entry.instrs.insert(index, alloca)
        then_block = self._fn.new_block("sel.then")
        else_block = self._fn.new_block("sel.else")
        done = self._fn.new_block("sel.done")
        cond = self._lower_expr(expr.cond)
        self._branch(cond, then_block, else_block, loc)
        self._switch_to(then_block)
        value = self._coerce(self._lower_expr(expr.then), result_type, loc)
        self._emit(Store(value, slot, None, loc))
        self._jump(done)
        self._switch_to(else_block)
        value = self._coerce(self._lower_expr(expr.otherwise), result_type, loc)
        self._emit(Store(value, slot, None, loc))
        self._jump(done)
        self._switch_to(done)
        result = self._temp(result_type)
        self._emit(Load(result, slot, None, loc))
        return result

    def _lower_unary(self, expr: ast.UnaryOp) -> Value:
        operand = self._lower_expr(expr.operand)
        loc = self._loc(expr)
        ty = ct.decay(expr.operand.ctype)
        if expr.op == "+":
            return operand
        if expr.op == "-":
            zero: Value = Const(0.0, ct.FLOAT) if isinstance(ty, ct.FloatType) \
                else Const(0, ct.INT)
            result = self._temp(ty if ct.is_arithmetic(ty) else ct.INT)
            self._emit(BinOp(result, "sub", zero, operand, loc))
            return result
        if expr.op == "!":
            zero = Const(0.0, ct.FLOAT) if isinstance(ty, ct.FloatType) \
                else Const(0, ct.INT)
            result = self._temp(ct.INT)
            self._emit(BinOp(result, "eq", operand, zero, loc))
            return result
        if expr.op == "~":
            result = self._temp(ct.INT)
            self._emit(BinOp(result, "xor", operand, Const(-1, ct.INT), loc))
            return result
        raise LoweringError(f"unhandled unary operator {expr.op!r}")

    def _lower_assign(self, expr: ast.Assign) -> Value:
        loc = self._loc(expr)
        addr, var = self._lower_address(expr.target)
        target_type = ct.decay(expr.target.ctype)
        if expr.op == "=":
            value = self._lower_expr(expr.value)
            value = self._coerce(value, target_type, loc)
            self._emit(Store(value, addr, var, loc))
            return value
        op = expr.op[:-1]
        old = self._temp(target_type)
        self._emit(Load(old, addr, var, loc))
        rhs = self._lower_expr(expr.value)
        if isinstance(target_type, ct.PointerType):
            index = rhs
            if op == "-":
                neg = self._temp(ct.INT)
                self._emit(BinOp(neg, "sub", Const(0, ct.INT), rhs, loc))
                index = neg
            new = self._temp(target_type)
            self._emit(AddrOffset(new, old, index, target_type.pointee.size(), 0,
                                  loc))
        else:
            value_type = ct.decay(expr.value.ctype)
            common = ct.common_arithmetic_type(target_type, value_type)
            lhs_v = self._coerce(old, common, loc)
            rhs_v = self._coerce(rhs, common, loc)
            tmp = self._temp(common)
            self._emit(BinOp(tmp, _ARITH_BY_PUNCT[op], lhs_v, rhs_v, loc))
            new = self._coerce(tmp, target_type, loc)
        self._emit(Store(new, addr, var, loc))
        return new

    def _lower_incdec(self, expr: ast.IncDec) -> Value:
        loc = self._loc(expr)
        addr, var = self._lower_address(expr.target)
        ty = ct.decay(expr.target.ctype)
        old = self._temp(ty)
        self._emit(Load(old, addr, var, loc))
        if isinstance(ty, ct.PointerType):
            delta = 1 if expr.op == "++" else -1
            new = self._temp(ty)
            self._emit(AddrOffset(new, old, Const(delta, ct.INT),
                                  ty.pointee.size(), 0, loc))
        else:
            one: Value = Const(1.0, ct.FLOAT) if isinstance(ty, ct.FloatType) \
                else Const(1, ct.INT)
            new = self._temp(ty)
            opname = "add" if expr.op == "++" else "sub"
            self._emit(BinOp(new, opname, old, one, loc))
        self._emit(Store(new, addr, var, loc))
        return new if expr.is_prefix else old

    def _lower_call(self, expr: ast.Call) -> Value:
        loc = self._loc(expr)
        callee_expr = expr.callee
        callee: Value
        ftype: Optional[ct.FunctionType] = None
        if isinstance(callee_expr, ast.VarRef):
            symbol: Symbol = getattr(callee_expr, "symbol")
            if symbol.kind in (SymbolKind.FUNCTION, SymbolKind.BUILTIN):
                assert isinstance(symbol.ctype, ct.FunctionType)
                ftype = symbol.ctype
                callee = FunctionRef(symbol.name, ftype,
                                     symbol.kind is SymbolKind.BUILTIN)
            else:
                callee = self._lower_expr(callee_expr)
        else:
            callee = self._lower_expr(callee_expr)
        if ftype is None:
            decayed = ct.decay(callee_expr.ctype)
            if isinstance(decayed, ct.PointerType) and isinstance(
                decayed.pointee, ct.FunctionType
            ):
                ftype = decayed.pointee
            elif isinstance(decayed, ct.FunctionType):
                ftype = decayed
            else:
                raise LoweringError("call through non-function value")
        args: List[Value] = []
        for arg, pty in zip(expr.args, ftype.param_types):
            value = self._lower_expr(arg)
            args.append(self._coerce(value, pty, loc))
        result: Optional[Temp] = None
        if not isinstance(ftype.return_type, ct.VoidType):
            result = self._temp(ftype.return_type)
        self._emit(Call(result, callee, args, loc))
        if result is None:
            return Const(0, ct.INT)
        return result
