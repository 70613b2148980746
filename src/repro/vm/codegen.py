"""IR -> register bytecode lowering.

:func:`lower_module` turns a verified :class:`~repro.ir.module.Module`
into a :class:`~repro.vm.bytecode.BytecodeModule`:

- **Slot allocation.**  Each function gets a flat register file
  ``[consts..., args..., temps...]``.  Constants, global addresses and
  function-pointer values are interned into a per-function const pool
  (resolved once at link time into the frame prototype); ``argN`` temps map
  onto the argument slots; every other temp gets a frame slot.  Operands in
  the code stream are plain slot indices — the dispatch loop never looks at
  a :class:`~repro.ir.values.Value` again.
- **Pre-bound call targets.**  Direct calls are split at lowering time into
  ``OP_CALL`` (defined function, by function-table index),
  ``OP_CALL_BUILTIN`` (by builtin-table index, with the builtin's
  allocation-site location baked in) and ``OP_CALL_MISSING`` (a trap
  when executed).  Indirect calls stay one ``OP_CALL_IND`` resolved
  through the linked address table.
- **Branch targets as code offsets.**  Jumps and branches carry absolute
  offsets into the function's code stream.  Phi nodes are lowered to
  per-CFG-edge trampolines (``OP_PHI`` reads all sources, then writes all
  destinations, then enters the successor body), so the runtime needs no
  ``prev_block`` tracking.
- **Probe/marker lowering.**  CARMOT probes and ROI/OMP markers become
  inline opcodes whose var/loc/string operands index module-level side
  tables — instrumented output needs no per-step object inspection either.

Lowering is purely structural: it never evaluates anything, so the
bytecode is valid for every entry point, argument vector, and hook set.
"""

from __future__ import annotations

import re
from array import array
from typing import Dict, List, Optional, Tuple

from repro.builtins_spec import BUILTINS
from repro.lang import types as ct
from repro.ir.instructions import (
    AddrOffset,
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Jump,
    Load,
    OmpBarrier,
    OmpRegionBegin,
    OmpRegionEnd,
    Phi,
    ProbeAccess,
    ProbeClassify,
    ProbeEscape,
    Ret,
    RoiBegin,
    RoiEnd,
    RoiReset,
    SourceLoc,
    Store,
    VarInfo,
)
from repro.ir.module import Block, Function, Module
from repro.ir.values import Const, FunctionRef, GlobalRef, Temp, Value
from repro.vm.bytecode import (
    BINOP_OPCODES,
    FUSED_CMP_BR,
    OPCODE_NAMES,
    BytecodeError,
    BytecodeFunction,
    BytecodeModule,
    GlobalInit,
    OP_ADDR,
    OP_ALLOCA,
    OP_BIN_STORE,
    OP_BR,
    OP_CALL,
    OP_CALL_BUILTIN,
    OP_CALL_IND,
    OP_CALL_MISSING,
    OP_CAST,
    OP_DIV,
    OP_JUMP,
    OP_LOAD,
    OP_LOAD_BIN,
    OP_OMP_BARRIER,
    OP_OMP_BEGIN,
    OP_OMP_END,
    OP_PHI,
    OP_PROBE_ACCESS,
    OP_PROBE_CLASSIFY,
    OP_PROBE_ESCAPE,
    OP_PROBE_LOAD,
    OP_PROBE_STORE,
    OP_REM,
    OP_RET,
    OP_ROI_BEGIN,
    OP_ROI_END,
    OP_ROI_RESET,
    OP_STORE,
    TY_CHAR,
    TY_FLOAT,
    TY_INT,
)

_ARG_NAME = re.compile(r"arg(\d+)\Z")

#: Width-3 binop opcodes (everything but div/rem, whose trap-loc operand
#: and zero check keep them out of the fusion catalog).
_SIMPLE_BINOPS = frozenset(
    op for op in BINOP_OPCODES.values() if op not in (OP_DIV, OP_REM)
)


def _line_of(loc: Optional[SourceLoc]) -> Optional[Tuple[str, int]]:
    return None if loc is None else (loc.filename, loc.line)


def _ty_code(ty: ct.Type) -> int:
    if isinstance(ty, ct.FloatType):
        return TY_FLOAT
    if isinstance(ty, ct.CharType):
        return TY_CHAR
    return TY_INT


class _SideTables:
    """Module-wide var/loc/string interning (deterministic walk order)."""

    def __init__(self) -> None:
        self._vars: Dict[int, int] = {}
        self.var_list: List[VarInfo] = []
        self._locs: Dict[SourceLoc, int] = {}
        self.loc_list: List[SourceLoc] = []
        self._strings: Dict[str, int] = {}
        self.string_list: List[str] = []

    def var(self, var: Optional[VarInfo]) -> int:
        if var is None:
            return -1
        index = self._vars.get(id(var))
        if index is None:
            index = len(self.var_list)
            self._vars[id(var)] = index
            self.var_list.append(var)
            # The serializer encodes decl locations by table index, so a
            # var's decl_loc must be interned even when no instruction
            # operand ever references it.
            self.loc(var.decl_loc)
        return index

    def loc(self, loc: Optional[SourceLoc]) -> int:
        if loc is None:
            return -1
        index = self._locs.get(loc)
        if index is None:
            index = len(self.loc_list)
            self._locs[loc] = index
            self.loc_list.append(loc)
        return index

    def string(self, text: str) -> int:
        index = self._strings.get(text)
        if index is None:
            index = len(self.string_list)
            self._strings[text] = index
            self.string_list.append(text)
        return index


def _operand_values(instr) -> List[Value]:
    """Every Value the instruction *reads* (slot operands, not results)."""
    kind = type(instr)
    if kind is Load:
        return [instr.ptr]
    if kind is Store:
        return [instr.value, instr.ptr]
    if kind is BinOp:
        return [instr.lhs, instr.rhs]
    if kind is Cast:
        return [instr.value]
    if kind is AddrOffset:
        return [instr.base, instr.index]
    if kind is Phi:
        return list(instr.incomings.values())
    if kind is Call:
        values = [] if isinstance(instr.callee, FunctionRef) \
            else [instr.callee]
        values.extend(instr.args)
        return values
    if kind is Branch:
        return [instr.cond]
    if kind is Ret:
        return [] if instr.value is None else [instr.value]
    if kind in (ProbeAccess, ProbeClassify):
        values = [instr.ptr]
        if instr.count is not None:
            values.append(instr.count)
        return values
    if kind is ProbeEscape:
        return [instr.value, instr.ptr]
    return []


class _FunctionLowering:
    def __init__(self, function: Function, tables: _SideTables,
                 module: Module,
                 fusion_stats: Optional[Dict[str, int]] = None,
                 pair_counts: Optional[Dict[str, int]] = None) -> None:
        self.function = function
        self.tables = tables
        self.module = module
        self.consts: List[tuple] = []
        self._const_slots: Dict[tuple, int] = {}
        self._temp_slots: Dict[str, int] = {}
        self.n_args = len(function.param_vars)
        self.code: List[int] = []
        #: pc -> source loc of the instruction there (see
        #: ``BytecodeFunction.lines``).
        self.lines: Dict[int, object] = {}
        self.block_pc: Dict[int, int] = {}       # id(block) -> body pc
        self.head_phis: Dict[int, List[Phi]] = {}  # id(block) -> leading phis
        self.fixups: List[Tuple[int, Block, Block]] = []
        #: (start_pc, opcode) of the previous emission in the current
        #: block — the fusion peephole's one-instruction lookbehind.
        self._prev: Optional[Tuple[int, int]] = None
        self.fusion_stats = fusion_stats if fusion_stats is not None else {}
        self.pair_counts = pair_counts if pair_counts is not None else {}

    # -- slot allocation ---------------------------------------------------

    def _const_slot(self, key: tuple, entry: tuple) -> int:
        slot = self._const_slots.get(key)
        if slot is None:
            slot = len(self.consts)
            self._const_slots[key] = slot
            self.consts.append(entry)
        return slot

    def _collect(self) -> None:
        """Pass 1: intern constants, size the arg window, name the temps."""
        for instr in self.function.instructions():
            for value in _operand_values(instr):
                kind = type(value)
                if kind is Const:
                    # Key on the value's type too: 1 and 1.0 are equal as
                    # dict keys but must occupy distinct slots.
                    self._const_slot(
                        ("v", type(value.value).__name__, value.value),
                        ("v", value.value),
                    )
                elif kind is GlobalRef:
                    self._const_slot(("g", value.name), ("g", value.name))
                elif kind is FunctionRef:
                    self._const_slot(("f", value.name), ("f", value.name))
                elif kind is Temp:
                    match = _ARG_NAME.fullmatch(value.name)
                    if match:
                        self.n_args = max(self.n_args, int(match.group(1)) + 1)
                    elif value.name not in self._temp_slots:
                        self._temp_slots[value.name] = len(self._temp_slots)
            result = getattr(instr, "result", None)
            if result is not None and not _ARG_NAME.fullmatch(result.name):
                if result.name not in self._temp_slots:
                    self._temp_slots[result.name] = len(self._temp_slots)

    def _slot(self, value: Value) -> int:
        kind = type(value)
        if kind is Temp:
            match = _ARG_NAME.fullmatch(value.name)
            if match:
                return len(self.consts) + int(match.group(1))
            return (len(self.consts) + self.n_args
                    + self._temp_slots[value.name])
        if kind is Const:
            return self._const_slots[
                ("v", type(value.value).__name__, value.value)]
        if kind is GlobalRef:
            return self._const_slots[("g", value.name)]
        if kind is FunctionRef:
            return self._const_slots[("f", value.name)]
        raise BytecodeError(
            f"cannot lower operand {value!r} in {self.function.name}")

    # -- emission ----------------------------------------------------------

    def _store_ty(self, instr: Store) -> int:
        ty = instr.ptr.ty.pointee \
            if isinstance(instr.ptr.ty, ct.PointerType) \
            else instr.value.ty
        return _ty_code(ty)

    def _count_pair(self, first: int, second: int) -> None:
        key = f"{OPCODE_NAMES[first]}+{OPCODE_NAMES[second]}"
        self.pair_counts[key] = self.pair_counts.get(key, 0) + 1

    def _fuse(self, prev: Tuple[int, int], instr, kind, block: Block) -> bool:
        """Superinstruction peephole: try to fuse ``instr`` into the
        previously emitted instruction (same block, emit-time adjacency —
        so the pair can never be separately branch-targeted).  Rewrites
        the tail of the code stream in place; safe because no fixup or
        block start ever points past the previous instruction's start.
        Returns True when ``instr`` was consumed by a fused opcode."""
        pstart, pop = prev
        code = self.code
        stats = self.fusion_stats
        if kind is Branch:
            fused = FUSED_CMP_BR.get(pop)
            if fused is None or self._slot(instr.cond) != code[pstart + 1]:
                return False
            self._count_pair(pop, OP_BR)
            dst, lhs, rhs = code[pstart + 1:pstart + 4]
            del code[pstart:]
            code.extend((fused, dst, lhs, rhs))
            self.fixups.append((len(code), block, instr.if_true))
            code.append(0)
            self.fixups.append((len(code), block, instr.if_false))
            code.append(0)
            stats["cmp_br"] = stats.get("cmp_br", 0) + 1
            return True
        if kind is BinOp and pop == OP_LOAD:
            subop = BINOP_OPCODES.get(instr.op)
            if subop is None or subop not in _SIMPLE_BINOPS:
                return False
            ldst = code[pstart + 1]
            lhs = self._slot(instr.lhs)
            rhs = self._slot(instr.rhs)
            if lhs != ldst and rhs != ldst:
                return False
            self._count_pair(OP_LOAD, subop)
            ptr, ty, is_var = code[pstart + 2:pstart + 5]
            del code[pstart:]
            code.extend((OP_LOAD_BIN, subop, ldst, ptr, ty, is_var,
                         self._slot(instr.result), lhs, rhs))
            stats["load_bin"] = stats.get("load_bin", 0) + 1
            return True
        if kind is Store and pop in _SIMPLE_BINOPS \
                and self._slot(instr.value) == code[pstart + 1]:
            self._count_pair(pop, OP_STORE)
            bdst, lhs, rhs = code[pstart + 1:pstart + 4]
            del code[pstart:]
            code.extend((OP_BIN_STORE, pop, bdst, lhs, rhs,
                         self._slot(instr.ptr), self._store_ty(instr),
                         1 if instr.var is not None else 0))
            stats["bin_store"] = stats.get("bin_store", 0) + 1
            return True
        if pop == OP_PROBE_ACCESS and (kind is Load or kind is Store):
            probe = code[pstart + 1:pstart + 9]
            del code[pstart:]
            if kind is Load:
                self._count_pair(OP_PROBE_ACCESS, OP_LOAD)
                code.extend((OP_PROBE_LOAD, *probe,
                             self._slot(instr.result), self._slot(instr.ptr),
                             _ty_code(instr.result.ty),
                             1 if instr.var is not None else 0))
            else:
                self._count_pair(OP_PROBE_ACCESS, OP_STORE)
                code.extend((OP_PROBE_STORE, *probe,
                             self._slot(instr.value), self._slot(instr.ptr),
                             self._store_ty(instr),
                             1 if instr.var is not None else 0))
            stats["probe_access"] = stats.get("probe_access", 0) + 1
            return True
        return False

    def _emit_instr(self, instr, block: Block, index: int) -> None:
        code = self.code
        kind = type(instr)
        prev = self._prev
        if prev is not None and self._fuse(prev, instr, kind, block):
            # Fused opcodes are never fusion sources themselves (greedy
            # left-to-right pairing, no triple superinstructions).
            self._prev = None
            first = self.lines[prev[0]]
            if _line_of(first) != _line_of(instr.loc):
                self.lines[prev[0]] = (first, instr.loc)
            return
        start = len(code)
        self._emit_plain(instr, block, index, kind)
        self.lines[start] = instr.loc
        op = code[start]
        if prev is not None:
            self._count_pair(prev[1], op)
        self._prev = (start, op)

    def _emit_plain(self, instr, block: Block, index: int, kind) -> None:
        code = self.code
        tables = self.tables
        if kind is Load:
            code.extend((OP_LOAD, self._slot(instr.result),
                         self._slot(instr.ptr), _ty_code(instr.result.ty),
                         1 if instr.var is not None else 0))
        elif kind is Store:
            ty = instr.ptr.ty.pointee \
                if isinstance(instr.ptr.ty, ct.PointerType) \
                else instr.value.ty
            code.extend((OP_STORE, self._slot(instr.value),
                         self._slot(instr.ptr), _ty_code(ty),
                         1 if instr.var is not None else 0))
        elif kind is BinOp:
            opcode = BINOP_OPCODES.get(instr.op)
            if opcode is None:
                raise BytecodeError(f"unknown binop {instr.op!r}")
            code.extend((opcode, self._slot(instr.result),
                         self._slot(instr.lhs), self._slot(instr.rhs)))
            if opcode in (OP_DIV, OP_REM):
                code.append(tables.loc(instr.loc))
        elif kind is AddrOffset:
            code.extend((OP_ADDR, self._slot(instr.result),
                         self._slot(instr.base), self._slot(instr.index),
                         instr.scale, instr.offset))
        elif kind is Cast:
            code.extend((OP_CAST, self._slot(instr.result),
                         self._slot(instr.value),
                         _ty_code(instr.result.ty)))
        elif kind is Alloca:
            code.extend((OP_ALLOCA, self._slot(instr.result),
                         instr.allocated_type.size(),
                         tables.var(instr.var), tables.loc(instr.loc)))
        elif kind is Jump:
            code.append(OP_JUMP)
            self.fixups.append((len(code), block, instr.target))
            code.append(0)
        elif kind is Branch:
            code.extend((OP_BR, self._slot(instr.cond)))
            self.fixups.append((len(code), block, instr.if_true))
            code.append(0)
            self.fixups.append((len(code), block, instr.if_false))
            code.append(0)
        elif kind is Ret:
            code.extend((OP_RET, -1 if instr.value is None
                         else self._slot(instr.value)))
        elif kind is Call:
            self._emit_call(instr, block, index)
        elif kind is RoiBegin:
            code.extend((OP_ROI_BEGIN, instr.roi_id))
        elif kind is RoiEnd:
            code.extend((OP_ROI_END, instr.roi_id))
        elif kind is RoiReset:
            code.extend((OP_ROI_RESET, instr.roi_id))
        elif kind is ProbeAccess:
            code.extend((
                OP_PROBE_ACCESS,
                1 if instr.kind.name == "WRITE" else 0,
                self._slot(instr.ptr), instr.size, tables.var(instr.var),
                -1 if instr.count is None else self._slot(instr.count),
                instr.stride, tables.loc(instr.loc),
                -1 if instr.site_id is None else instr.site_id,
            ))
        elif kind is ProbeClassify:
            code.extend((
                OP_PROBE_CLASSIFY, tables.string(instr.states),
                self._slot(instr.ptr), instr.size, tables.var(instr.var),
                -1 if instr.count is None else self._slot(instr.count),
                instr.stride, tables.loc(instr.loc),
                -1 if instr.roi_id is None else instr.roi_id,
                -1 if instr.site_id is None else instr.site_id,
            ))
        elif kind is ProbeEscape:
            code.extend((OP_PROBE_ESCAPE, self._slot(instr.value),
                         self._slot(instr.ptr), tables.loc(instr.loc)))
        elif kind is OmpRegionBegin:
            code.extend((OP_OMP_BEGIN, tables.string(instr.kind),
                         instr.region_id))
        elif kind is OmpRegionEnd:
            code.extend((OP_OMP_END, tables.string(instr.kind),
                         instr.region_id))
        elif kind is OmpBarrier:
            code.append(OP_OMP_BARRIER)
        elif kind is Phi:
            raise BytecodeError(
                f"phi after non-phi in block {block.label} of "
                f"{self.function.name}"
            )
        else:
            raise BytecodeError(f"cannot lower {instr!r}")

    def _emit_call(self, instr: Call, block: Block, index: int) -> None:
        code = self.code
        dst = -1 if instr.result is None else self._slot(instr.result)
        pin = 1 if instr.pin_gated else 0
        args = [self._slot(a) for a in instr.args]
        # A builtin's allocation site is the source location of the
        # *next* instruction.  A Call is never a terminator, so that
        # instruction always exists; bake its loc in.
        alloc_loc = self.tables.loc(block.instrs[index + 1].loc)
        if isinstance(instr.callee, FunctionRef):
            name = instr.callee.name
            if name in BUILTINS:
                code.extend((OP_CALL_BUILTIN,
                             list(BUILTINS).index(name), dst, pin,
                             alloc_loc, len(args)))
                code.extend(args)
            elif name in self.module.functions:
                code.extend((OP_CALL,
                             list(self.module.functions).index(name), dst,
                             pin, len(args)))
                code.extend(args)
            else:
                code.extend((OP_CALL_MISSING, self.tables.string(name),
                             len(args)))
                code.extend(args)
        else:
            code.extend((OP_CALL_IND, self._slot(instr.callee), dst, pin,
                         alloc_loc, len(args)))
            code.extend(args)

    def lower(self) -> BytecodeFunction:
        function = self.function
        self._collect()
        code = self.code
        for block in function.blocks:
            if not block.is_terminated:
                raise BytecodeError(
                    f"unterminated block {block.label} in {function.name}")
            head = 0
            while (head < len(block.instrs)
                   and type(block.instrs[head]) is Phi):
                head += 1
            self.head_phis[id(block)] = block.instrs[:head]  # type: ignore
            self.block_pc[id(block)] = len(code)
            # Fusion never crosses a block boundary: the successor's first
            # instruction is a branch target (block_pc points at it).
            self._prev = None
            for index in range(head, len(block.instrs)):
                self._emit_instr(block.instrs[index], block, index)
        if self.head_phis[id(function.entry)]:
            raise BytecodeError(
                f"entry block of {function.name} has phis")
        # One OP_PHI trampoline per (pred, succ-with-phis) edge, emitted in
        # first-use order: read all incomings, write all results, enter the
        # successor body: a block's phis assign atomically, without any
        # runtime prev_block bookkeeping.
        edge_pc: Dict[Tuple[int, int], int] = {}
        for _, pred, succ in self.fixups:
            key = (id(pred), id(succ))
            if not self.head_phis[id(succ)] or key in edge_pc:
                continue
            edge_pc[key] = len(code)
            phis = self.head_phis[id(succ)]
            self.lines[len(code)] = phis[0].loc
            code.extend((OP_PHI, len(phis), self.block_pc[id(succ)]))
            for phi in phis:
                incoming = phi.incomings.get(pred)
                if incoming is None:
                    raise BytecodeError(
                        f"phi {phi.result.name} in {succ.label} has no "
                        f"incoming for predecessor {pred.label}"
                    )
                code.append(self._slot(incoming))
                code.append(self._slot(phi.result))
        for at, pred, succ in self.fixups:
            target = edge_pc.get((id(pred), id(succ)))
            code[at] = self.block_pc[id(succ)] if target is None else target
        lowered = BytecodeFunction(
            name=function.name,
            code=array("q", code),
            consts=self.consts,
            n_args=self.n_args,
            n_regs=len(self.consts) + self.n_args + len(self._temp_slots),
            entry_pc=self.block_pc[id(function.entry)],
            instrumented=not function.conventionally_optimized,
        )
        lowered.lines = self.lines
        return lowered


def lower_module(module: Module) -> BytecodeModule:
    """Lower every function of ``module`` to register bytecode."""
    bc = BytecodeModule(module.name)
    tables = _SideTables()
    for gvar in module.globals.values():
        if gvar.init is None:
            kind: str = "none"
            init = None
        elif isinstance(gvar.init, str):
            kind, init = "str", gvar.init
        elif isinstance(gvar.ty, ct.FloatType):
            kind, init = "float", float(gvar.init)
        else:
            kind, init = "int", int(gvar.init)
        bc.globals.append(GlobalInit(
            gvar.name, gvar.ty.size(), tables.var(gvar.var), kind, init,
        ))
    fusion_stats = {"cmp_br": 0, "load_bin": 0, "bin_store": 0,
                    "probe_access": 0}
    pair_counts: Dict[str, int] = {}
    for name, function in module.functions.items():
        bc.functions[name] = _FunctionLowering(
            function, tables, module, fusion_stats, pair_counts).lower()
        bc.function_order.append(name)
    bc.builtin_order = list(BUILTINS)
    bc.var_table = tables.var_list
    bc.loc_table = tables.loc_list
    bc.string_table = tables.string_list
    bc.fusion_stats = fusion_stats
    bc.pair_counts = pair_counts
    return bc
