"""Flat register bytecode: the compiled form the dispatch VM executes.

:mod:`repro.vm.codegen` lowers a verified IR module into one
:class:`BytecodeModule`: per function a single ``array('q')`` code stream
of integer opcodes with *pre-resolved* operand slots (constants, arguments
and temps share one flat register file per frame), branch targets resolved
to absolute code offsets, builtin and call targets pre-bound through small
index tables, and CARMOT probes / ROI / OMP markers lowered to inline
opcodes.  Execution then needs no per-step object inspection at all — the
dispatch loop in :mod:`repro.vm.bcinterp` only indexes arrays.

The module is also a cacheable artifact: :func:`serialize_bytecode` emits
canonical JSON (key-sorted, compact separators, tables in deterministic
order) so warm session runs skip lowering entirely, with the same
byte-stability guarantees as :mod:`repro.ir.serialize`:

- ``serialize(deserialize(serialize(bc))) == serialize(bc)`` byte for byte;
- digests are stable across process runs (no hash-seed dependence).

The format carries ``BYTECODE_SCHEMA_VERSION``; any shape change must bump
it (stale cache entries then never match — see :mod:`repro.session.keys`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro._version import BYTECODE_SCHEMA_VERSION
from repro.errors import ReproError
from repro.ir.instructions import SourceLoc, VarInfo
from repro.ir.serialize import _dec_type, _enc_type
from repro.lang.tokens import SourcePos

FORMAT_NAME = "repro-bytecode"


class BytecodeError(ReproError):
    """Lowering failed (malformed or unsupported IR shape)."""


class BytecodeSerializeError(ReproError):
    """Malformed or incompatible serialized bytecode."""


# ---------------------------------------------------------------------------
# Opcode set
# ---------------------------------------------------------------------------
#
# Every opcode is one int followed by a fixed (per-opcode) operand layout;
# call opcodes append ``argc`` trailing argument slots.  The interpreter
# runs each instruction's words as one tuple (:func:`execution_stream`),
# at the same pc as in the canonical stream.  Operand slots are
# indices into the frame's flat register file; ``*_pc`` operands are
# absolute offsets into the function's code stream; ``var``/``loc``/string
# operands index the module-level side tables (-1 encodes None).

OP_LOAD = 1            # [dst, ptr, ty, is_var]
OP_STORE = 2           # [val, ptr, ty, is_var]
OP_ADDR = 3            # [dst, base, index, scale, offset]
OP_JUMP = 4            # [target_pc]
OP_BR = 5              # [cond, true_pc, false_pc]
OP_PHI = 6             # [k, succ_pc, src0, dst0, ... src{k-1}, dst{k-1}]
OP_CAST = 7            # [dst, src, to]
OP_ALLOCA = 8          # [dst, size, var, loc]
OP_CALL = 9            # [func, dst, pin, argc, args...]
OP_CALL_BUILTIN = 10   # [builtin, dst, pin, alloc_loc, argc, args...]
OP_CALL_IND = 11       # [callee, dst, pin, alloc_loc, argc, args...]
OP_CALL_MISSING = 12   # [name_str, argc, args...]
OP_RET = 13            # [val]
OP_ROI_BEGIN = 14      # [roi]
OP_ROI_END = 15        # [roi]
OP_ROI_RESET = 16      # [roi]
OP_PROBE_ACCESS = 17   # [is_write, ptr, size, var, count, stride, loc, site]
OP_PROBE_CLASSIFY = 18  # [states_str, ptr, size, var, count, stride, loc,
#                          roi, site]
OP_PROBE_ESCAPE = 19   # [val, ptr, loc]
OP_OMP_BEGIN = 20      # [kind_str, region]
OP_OMP_END = 21        # [kind_str, region]
OP_OMP_BARRIER = 22    # []
OP_ADD = 23            # binops: [dst, lhs, rhs]; div/rem add a loc operand
OP_SUB = 24
OP_MUL = 25
OP_DIV = 26            # [dst, lhs, rhs, loc]
OP_REM = 27            # [dst, lhs, rhs, loc]
OP_EQ = 28
OP_NE = 29
OP_LT = 30
OP_LE = 31
OP_GT = 32
OP_GE = 33
OP_AND = 34
OP_OR = 35
OP_XOR = 36
OP_SHL = 37
OP_SHR = 38
# 39 is retired and unassigned: the opcodes after it keep their numbers,
# and a stream that still carries it is refused at link.

# -- tier-2 superinstructions (canonical: serialized, schema v2) ------------
#
# The fusion peephole in :mod:`repro.vm.codegen` collapses the adjacent
# pairs that dominate lowered streams (see the static pair-frequency
# count it records) into one fused opcode each.  Fused execution still
# counts both component instructions and checks the budget between the
# halves, so trip points and spilled state match the unfused stream
# exactly.

OP_LT_BR = 40          # [dst, lhs, rhs, true_pc, false_pc]  (cmp+branch)
OP_LE_BR = 41
OP_GT_BR = 42
OP_GE_BR = 43
OP_EQ_BR = 44
OP_NE_BR = 45
OP_LOAD_BIN = 46       # [subop, ldst, ptr, ty, is_var, bdst, lhs, rhs]
OP_BIN_STORE = 47      # [subop, bdst, lhs, rhs, ptr, ty, is_var]
OP_PROBE_LOAD = 48     # [probe.access 8 operands..., dst, ptr, ty, is_var]
OP_PROBE_STORE = 49    # [probe.access 8 operands..., val, ptr, ty, is_var]

#: cmp opcode -> fused cmp+branch opcode.
FUSED_CMP_BR: Dict[int, int] = {}

# -- tier-2 quickened opcodes (runtime-only: NEVER serialized) --------------
#
# The interpreter replaces the tuples of quickenable sites in a function's
# *execution stream* with these on first execution (see
# ``BytecodeInterpreter``); the canonical ``fn.code`` stream is never
# touched, and ``dequicken`` rebuilds the tuples from it.  Layouts match
# the canonical forms word for word, so pcs never move; ``*_QI`` variants
# carry an immediate operand value where the canonical form carries a
# const-pool slot.

OP_ADD_QI = 56         # [dst, lhs, imm]
OP_SUB_QI = 57         # [dst, lhs, imm]
OP_RSUB_QI = 58        # [dst, imm, rhs]  (sub with constant lhs)
OP_MUL_QI = 59         # [dst, lhs, imm]
OP_DIV_QI = 60         # [dst, lhs, imm, loc]  (imm is a nonzero int)
OP_REM_QI = 61         # [dst, lhs, imm, loc]  (imm is a nonzero int)
OP_LT_BR_QI = 62       # [dst, lhs, imm, true_pc, false_pc]
OP_LE_BR_QI = 63
OP_GT_BR_QI = 64
OP_GE_BR_QI = 65
OP_EQ_BR_QI = 66
OP_NE_BR_QI = 67
OP_PHI_Q1 = 68         # OP_PHI layout with k == 1
OP_CALL_IND_QF = 69    # [target_index, dst, pin, alloc_loc, argc, args...]
OP_CALL_IND_QB = 70    # same, target pre-resolved to a builtin
OP_JUMP_PHI = 71       # OP_JUMP layout; target is a phi trampoline that is
                       # executed in the same dispatch (still counted as two
                       # instructions, budget-checked between them)

#: Offset from a canonical fused cmp+branch opcode to its ``_QI`` twin.
QUICKEN_CMP_BR_OFFSET = OP_LT_BR_QI - OP_LT_BR

#: Canonical binop opcode -> immediate-quickened opcode.
QUICKENED_BINOPS: Dict[int, int] = {}

#: Every opcode that only exists in a quickened execution stream.
QUICKENED_OPCODES = frozenset(range(OP_ADD_QI, OP_JUMP_PHI + 1))

#: IR binop name -> opcode (div/rem carry an extra loc operand for traps).
BINOP_OPCODES: Dict[str, int] = {
    "add": OP_ADD, "sub": OP_SUB, "mul": OP_MUL, "div": OP_DIV,
    "rem": OP_REM, "eq": OP_EQ, "ne": OP_NE, "lt": OP_LT, "le": OP_LE,
    "gt": OP_GT, "ge": OP_GE, "and": OP_AND, "or": OP_OR, "xor": OP_XOR,
    "shl": OP_SHL, "shr": OP_SHR,
}

FUSED_CMP_BR.update({
    OP_LT: OP_LT_BR, OP_LE: OP_LE_BR, OP_GT: OP_GT_BR, OP_GE: OP_GE_BR,
    OP_EQ: OP_EQ_BR, OP_NE: OP_NE_BR,
})
QUICKENED_BINOPS.update({
    OP_ADD: OP_ADD_QI, OP_SUB: OP_SUB_QI, OP_MUL: OP_MUL_QI,
    OP_DIV: OP_DIV_QI, OP_REM: OP_REM_QI,
})

#: Fused opcode -> stats-bucket name (``fused_sites`` breakdown).
FUSED_KINDS: Dict[int, str] = {
    OP_LT_BR: "cmp_br", OP_LE_BR: "cmp_br", OP_GT_BR: "cmp_br",
    OP_GE_BR: "cmp_br", OP_EQ_BR: "cmp_br", OP_NE_BR: "cmp_br",
    OP_LOAD_BIN: "load_bin", OP_BIN_STORE: "bin_store",
    OP_PROBE_LOAD: "probe_access", OP_PROBE_STORE: "probe_access",
}

#: Scalar type codes for load/store/cast operands.
TY_INT = 0
TY_FLOAT = 1
TY_CHAR = 2

#: Opcode -> mnemonic, for ``--trace`` output and disassembly in tests.
OPCODE_NAMES: Dict[int, str] = {
    OP_LOAD: "load", OP_STORE: "store", OP_ADDR: "addr", OP_JUMP: "jump",
    OP_BR: "br", OP_PHI: "phi", OP_CAST: "cast", OP_ALLOCA: "alloca",
    OP_CALL: "call", OP_CALL_BUILTIN: "call.builtin",
    OP_CALL_IND: "call.ind", OP_CALL_MISSING: "call.missing",
    OP_RET: "ret", OP_ROI_BEGIN: "roi.begin", OP_ROI_END: "roi.end",
    OP_ROI_RESET: "roi.reset", OP_PROBE_ACCESS: "probe.access",
    OP_PROBE_CLASSIFY: "probe.classify", OP_PROBE_ESCAPE: "probe.escape",
    OP_OMP_BEGIN: "omp.begin", OP_OMP_END: "omp.end",
    OP_OMP_BARRIER: "omp.barrier",
    OP_LT_BR: "lt.br", OP_LE_BR: "le.br", OP_GT_BR: "gt.br",
    OP_GE_BR: "ge.br", OP_EQ_BR: "eq.br", OP_NE_BR: "ne.br",
    OP_LOAD_BIN: "load.bin", OP_BIN_STORE: "bin.store",
    OP_PROBE_LOAD: "probe.load", OP_PROBE_STORE: "probe.store",
    OP_ADD_QI: "add.qi", OP_SUB_QI: "sub.qi", OP_RSUB_QI: "rsub.qi",
    OP_MUL_QI: "mul.qi", OP_DIV_QI: "div.qi", OP_REM_QI: "rem.qi",
    OP_LT_BR_QI: "lt.br.qi", OP_LE_BR_QI: "le.br.qi",
    OP_GT_BR_QI: "gt.br.qi", OP_GE_BR_QI: "ge.br.qi",
    OP_EQ_BR_QI: "eq.br.qi", OP_NE_BR_QI: "ne.br.qi",
    OP_PHI_Q1: "phi.q1",
    OP_CALL_IND_QF: "call.ind.qf", OP_CALL_IND_QB: "call.ind.qb",
    OP_JUMP_PHI: "jump.phi",
}
OPCODE_NAMES.update({code: name for name, code in BINOP_OPCODES.items()})

#: Fixed operand count per opcode; call opcodes add ``argc`` more.
OPCODE_WIDTHS: Dict[int, int] = {
    OP_LOAD: 4, OP_STORE: 4, OP_ADDR: 5, OP_JUMP: 1, OP_BR: 3,
    OP_CAST: 3, OP_ALLOCA: 4, OP_CALL: 4, OP_CALL_BUILTIN: 5,
    OP_CALL_IND: 5, OP_CALL_MISSING: 2, OP_RET: 1, OP_ROI_BEGIN: 1,
    OP_ROI_END: 1, OP_ROI_RESET: 1, OP_PROBE_ACCESS: 8,
    OP_PROBE_CLASSIFY: 9, OP_PROBE_ESCAPE: 3, OP_OMP_BEGIN: 2,
    OP_OMP_END: 2, OP_OMP_BARRIER: 0,
    OP_ADD: 3, OP_SUB: 3, OP_MUL: 3, OP_DIV: 4, OP_REM: 4, OP_EQ: 3,
    OP_NE: 3, OP_LT: 3, OP_LE: 3, OP_GT: 3, OP_GE: 3, OP_AND: 3,
    OP_OR: 3, OP_XOR: 3, OP_SHL: 3, OP_SHR: 3,
    OP_LT_BR: 5, OP_LE_BR: 5, OP_GT_BR: 5, OP_GE_BR: 5, OP_EQ_BR: 5,
    OP_NE_BR: 5, OP_LOAD_BIN: 8, OP_BIN_STORE: 7, OP_PROBE_LOAD: 12,
    OP_PROBE_STORE: 12,
    OP_ADD_QI: 3, OP_SUB_QI: 3, OP_RSUB_QI: 3, OP_MUL_QI: 3,
    OP_DIV_QI: 4, OP_REM_QI: 4, OP_LT_BR_QI: 5, OP_LE_BR_QI: 5,
    OP_GT_BR_QI: 5, OP_GE_BR_QI: 5, OP_EQ_BR_QI: 5, OP_NE_BR_QI: 5,
    OP_CALL_IND_QF: 5, OP_CALL_IND_QB: 5, OP_JUMP_PHI: 1,
}

#: Opcodes whose width is ``OPCODE_WIDTHS[op] + argc`` (argc operand index
#: relative to the opcode word, used by the disassembler/verifier walk).
CALL_ARGC_INDEX = {OP_CALL: 4, OP_CALL_BUILTIN: 5, OP_CALL_IND: 5,
                   OP_CALL_MISSING: 2, OP_CALL_IND_QF: 5,
                   OP_CALL_IND_QB: 5}
#: OP_PHI's width is ``2 + 2*k`` (k = first operand).


def instr_width(code, pc: int) -> int:
    """Total width (opcode word included) of the instruction at ``pc``."""
    op = code[pc]
    if op == OP_PHI or op == OP_PHI_Q1:
        return 3 + 2 * code[pc + 1]
    width = 1 + OPCODE_WIDTHS[op]
    argc_at = CALL_ARGC_INDEX.get(op)
    if argc_at is not None:
        width += code[pc + argc_at]
    return width


def execution_stream(fn: "BytecodeFunction") -> list:
    """The list the dispatch loop runs for ``fn``: at each instruction's
    canonical pc the tuple of its words (opcode first, then operands, call
    arguments included), ``None`` at the pcs in between.

    Raises :class:`BytecodeError` on an unknown opcode or an instruction
    that runs past the end of the code."""
    code = fn.code
    n = len(code)
    stream: list = [None] * n
    pc = 0
    while pc < n:
        try:
            width = instr_width(code, pc)
        except KeyError:
            raise BytecodeError(
                f"unknown opcode {code[pc]} at {fn.name}+{pc}") from None
        except IndexError:  # a call or phi cut before its count word
            width = n + 1
        if pc + width > n:
            raise BytecodeError(f"truncated instruction at {fn.name}+{pc}")
        stream[pc] = tuple(code[pc:pc + width])
        pc += width
    return stream


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------


class BytecodeFunction:
    """One lowered function: code stream + frame layout + const pool.

    The frame register file is ``[consts..., args..., temps...]``:
    ``consts`` entries are tagged ``("v", value)`` literals, ``("g", name)``
    global addresses, or ``("f", name)`` function-pointer values, resolved
    once at link time into a frame *prototype* the interpreter copies per
    call (one C-level list copy instead of per-operand evaluation).
    """

    __slots__ = ("name", "code", "consts", "n_args", "n_regs", "entry_pc",
                 "instrumented", "arg_base", "proto", "xcode", "xquick",
                 "quickened", "lines")

    def __init__(self, name: str, code, consts: List[tuple], n_args: int,
                 n_regs: int, entry_pc: int, instrumented: bool) -> None:
        self.name = name
        self.code = code
        self.consts = consts
        self.n_args = n_args
        self.n_regs = n_regs
        self.entry_pc = entry_pc
        #: ``not conventionally_optimized`` at lowering time — the second
        #: argument of ``ExecutionHooks.on_call_enter``.
        self.instrumented = instrumented
        self.arg_base = len(consts)
        #: Linked frame prototype (filled by the interpreter's first link).
        self.proto: Optional[list] = None
        #: Execution stream (:func:`execution_stream`), built at link
        #: time: one tuple per instruction, indexed by canonical pc.  This
        #: is what the dispatch loop runs and what quickening rewrites,
        #: tuple by tuple; ``code`` itself stays canonical forever, so
        #: serialization and digests can never observe quickened opcodes.
        #: It is shared by every interpreter over the module and holds
        #: nothing of one run (the load/store object cache is per run).
        self.xcode: Optional[list] = None
        #: True once this function's execution stream has been quickened.
        self.xquick = False
        #: pc -> quickened opcode for every rewritten site (None until the
        #: first quickening pass touches the function).
        self.quickened: Optional[Dict[int, int]] = None
        #: Codegen's line table: pc -> the :class:`SourceLoc` of the
        #: instruction there, or a ``(first, second)`` pair for a fused
        #: site whose halves sit on two source lines.  Phi trampolines
        #: carry their first phi's loc.  Never serialized (``None`` on a
        #: deserialized module), so bytecode digests do not see it.
        self.lines: Optional[Dict[int, object]] = None


class GlobalInit:
    """Link-time recipe for one global: size, identity, initializer."""

    __slots__ = ("name", "size", "var_index", "init_kind", "init")

    def __init__(self, name: str, size: int, var_index: int,
                 init_kind: str, init) -> None:
        self.name = name
        self.size = size
        self.var_index = var_index
        self.init_kind = init_kind  # "none" | "str" | "float" | "int"
        self.init = init


class BytecodeModule:
    """A lowered module: functions plus the shared side tables.

    ``function_order`` fixes function-pointer addresses
    (``FUNC_PTR_BASE + index``, builtins appended after),
    ``builtin_order`` the direct builtin-call binding, and the
    var/loc/string tables everything the probe and marker opcodes
    reference.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.functions: Dict[str, BytecodeFunction] = {}
        self.function_order: List[str] = []
        self.builtin_order: List[str] = []
        self.var_table: List[VarInfo] = []
        self.loc_table: List[SourceLoc] = []
        self.string_table: List[str] = []
        self.globals: List[GlobalInit] = []
        #: Link cache (global/function addresses are deterministic, so one
        #: link serves every interpreter over this module).
        self._linked = None
        #: Pre-resolved indirect-call targets appended by quickening
        #: (``OP_CALL_IND_QF/QB`` operands index this list).
        self._quick_targets: List[object] = []
        #: Fusion-kind counts recorded by the codegen peephole (live
        #: lowering only; recount deserialized modules via
        #: :func:`fused_site_counts`).
        self.fusion_stats: Dict[str, int] = {}
        #: Static adjacent-opcode pair frequencies seen during lowering —
        #: the evidence the fusion catalog is chosen from.
        self.pair_counts: Dict[str, int] = {}
        #: Total quickened sites restored by :func:`dequicken_module`.
        self.dequicken_count = 0

    def rebind_vars(self, module) -> None:
        """Swap var-table entries for the IR module's own instances.

        A deserialized bytecode module carries fresh :class:`VarInfo`
        objects; the runtime's site intern table is keyed by identity, so
        runs must report the same instances the :class:`CarmotRuntime`
        was seeded with.  Matching is by ``uid`` (unique per module).
        (:class:`SourceLoc` needs no rebinding — it is globally interned.)
        """
        by_uid = {}
        for gvar in module.globals.values():
            by_uid[gvar.var.uid] = gvar.var
        for function in module.functions.values():
            for var in function.param_vars:
                by_uid[var.uid] = var
            for alloca in function.var_allocas.values():
                if alloca.var is not None:
                    by_uid[alloca.var.uid] = alloca.var
            for instr in function.instructions():
                var = getattr(instr, "var", None)
                if var is not None:
                    by_uid[var.uid] = var
        for var, _loc in module.site_table:
            if var is not None:
                by_uid[var.uid] = var
        self.var_table = [by_uid.get(var.uid, var) for var in self.var_table]


# ---------------------------------------------------------------------------
# Tier-2 introspection: dequickening, stats, disassembly
# ---------------------------------------------------------------------------


def dequicken_module(bc: BytecodeModule) -> int:
    """Restore every quickened execution stream to the canonical tuples.

    Rebuilds each patched site's tuple in ``fn.xcode`` from ``fn.code``
    (the canonical stream, which quickening never touches) and clears the
    quickening state so the next run re-quickens from scratch.  Returns
    the number of sites restored and accumulates it on
    ``bc.dequicken_count``.
    """
    restored = 0
    for name in bc.function_order:
        fn = bc.functions[name]
        sites = fn.quickened
        if sites:
            code = fn.code
            xcode = fn.xcode
            for pc in sites:
                xcode[pc] = tuple(code[pc:pc + instr_width(code, pc)])
            restored += len(sites)
        fn.quickened = None
        fn.xquick = False
    del bc._quick_targets[:]
    bc.dequicken_count += restored
    return restored


def fused_site_counts(bc: BytecodeModule) -> Dict[str, int]:
    """Count fused superinstruction sites per kind by walking the
    canonical code streams (works for live and deserialized modules
    alike).  Includes a ``"total"`` entry."""
    counts = {"cmp_br": 0, "load_bin": 0, "bin_store": 0,
              "probe_access": 0}
    total = 0
    for name in bc.function_order:
        code = bc.functions[name].code
        pc = 0
        n = len(code)
        while pc < n:
            kind = FUSED_KINDS.get(code[pc])
            if kind is not None:
                counts[kind] += 1
                total += 1
            pc += instr_width(code, pc)
    counts["total"] = total
    return counts


def quickened_op_count(bc: BytecodeModule) -> int:
    """Number of currently-quickened sites across all functions."""
    return sum(len(bc.functions[name].quickened or ())
               for name in bc.function_order)


def disassemble(bc: BytecodeModule, quicken_report: bool = False) -> str:
    """Human-readable listing of every canonical code stream.

    Always renders the *canonical* words (``fn.code``), so the output is
    byte-identical before and after execution regardless of quickening.
    Fused superinstruction sites are marked ``; fused``; with
    ``quicken_report`` each site the interpreter has quickened gains a
    ``; quickened -> <mnemonic>`` annotation read from the (runtime-only)
    execution stream.
    """
    lines = [f"module {bc.name}"]
    for name in bc.function_order:
        fn = bc.functions[name]
        lines.append("")
        lines.append(f"fn {fn.name} args={fn.n_args} regs={fn.n_regs} "
                     f"entry={fn.entry_pc}")
        if fn.consts:
            pool = ", ".join(f"c{i}={tag}:{payload!r}"
                             for i, (tag, payload) in enumerate(fn.consts))
            lines.append(f"  consts: {pool}")
        code = fn.code
        quickened = fn.quickened or {}
        pc = 0
        n = len(code)
        while pc < n:
            op = code[pc]
            width = instr_width(code, pc)
            operands = ", ".join(str(code[pc + i]) for i in range(1, width))
            text = f"  {pc:5d}: {OPCODE_NAMES.get(op, f'op{op}')}"
            if operands:
                text += f" {operands}"
            if op in FUSED_KINDS:
                text += "  ; fused"
            if quicken_report and pc in quickened:
                text += (f"  ; quickened -> "
                         f"{OPCODE_NAMES.get(quickened[pc], '?')}")
            lines.append(text)
            pc += width
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _enc_var(var: VarInfo, structs, loc_index) -> dict:
    return {
        "uid": var.uid,
        "name": var.name,
        "storage": var.storage,
        "ty": _enc_type(var.ty, structs),
        "decl": loc_index(var.decl_loc),
    }


def serialize_bytecode(bc: BytecodeModule) -> str:
    """Canonical JSON for one :class:`BytecodeModule` (byte-stable)."""
    structs: Dict[str, object] = {}
    loc_ids = {loc: index for index, loc in enumerate(bc.loc_table)}

    def loc_index(loc: Optional[SourceLoc]) -> int:
        return -1 if loc is None else loc_ids[loc]

    doc = {
        "format": FORMAT_NAME,
        "schema": BYTECODE_SCHEMA_VERSION,
        "module": bc.name,
        "locs": [[loc.filename, loc.line, loc.column]
                 for loc in bc.loc_table],
        "strings": list(bc.string_table),
        "function_order": list(bc.function_order),
        "builtin_order": list(bc.builtin_order),
        "vars": [_enc_var(var, structs, loc_index) for var in bc.var_table],
        "globals": [
            {
                "name": g.name,
                "size": g.size,
                "var": g.var_index,
                "init": (None if g.init_kind == "none"
                         else [g.init_kind, g.init]),
            }
            for g in bc.globals
        ],
        "functions": [
            {
                "name": fn.name,
                "code": list(fn.code),
                "consts": [list(entry) for entry in fn.consts],
                "n_args": fn.n_args,
                "n_regs": fn.n_regs,
                "entry": fn.entry_pc,
                "instrumented": fn.instrumented,
            }
            for fn in (bc.functions[name] for name in bc.function_order)
        ],
    }
    # The struct table is collected while encoding var types; emit it
    # sorted by name so the payload never depends on walk order.
    doc["structs"] = [
        {
            "name": name,
            "fields": [[fname, _enc_type(fty, structs)]
                       for fname, fty in structs[name].fields],
        }
        for name in sorted(structs)
    ]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def deserialize_bytecode(payload: str) -> BytecodeModule:
    """Inverse of :func:`serialize_bytecode`; raises
    :class:`BytecodeSerializeError` on any malformed or stale payload."""
    from array import array

    from repro.lang import types as ct

    try:
        doc = json.loads(payload)
    except (json.JSONDecodeError, TypeError) as error:
        raise BytecodeSerializeError(f"unreadable bytecode payload: {error}")
    if not isinstance(doc, dict):
        raise BytecodeSerializeError(
            f"bytecode payload is {type(doc).__name__}, expected object"
        )
    try:
        if doc.get("format") != FORMAT_NAME:
            raise BytecodeSerializeError(
                f"not a {FORMAT_NAME} payload: {doc.get('format')!r}"
            )
        if doc.get("schema") != BYTECODE_SCHEMA_VERSION:
            raise BytecodeSerializeError(
                f"bytecode schema {doc.get('schema')!r} != "
                f"{BYTECODE_SCHEMA_VERSION}"
            )
        structs: Dict[str, ct.StructType] = {}
        for sdoc in doc["structs"]:
            structs[sdoc["name"]] = ct.StructType(sdoc["name"])
        for sdoc in doc["structs"]:
            structs[sdoc["name"]].set_body([
                (fname, _dec_type(fdoc, structs))
                for fname, fdoc in sdoc["fields"]
            ])
        bc = BytecodeModule(doc["module"])
        bc.loc_table = [
            SourceLoc.of(SourcePos(filename, line, column))
            for filename, line, column in doc["locs"]
        ]
        bc.string_table = [str(s) for s in doc["strings"]]
        bc.function_order = [str(n) for n in doc["function_order"]]
        bc.builtin_order = [str(n) for n in doc["builtin_order"]]

        def loc_at(index: int) -> Optional[SourceLoc]:
            return None if index < 0 else bc.loc_table[index]

        bc.var_table = [
            VarInfo(
                uid=vdoc["uid"], name=vdoc["name"],
                storage=vdoc["storage"],
                ty=_dec_type(vdoc["ty"], structs),
                decl_loc=loc_at(vdoc["decl"]),
            )
            for vdoc in doc["vars"]
        ]
        for gdoc in doc["globals"]:
            init = gdoc["init"]
            if init is None:
                kind, value = "none", None
            else:
                kind, value = init[0], init[1]
                if kind not in ("str", "float", "int"):
                    raise BytecodeSerializeError(
                        f"unknown global init kind {kind!r}"
                    )
            bc.globals.append(GlobalInit(
                gdoc["name"], gdoc["size"], gdoc["var"], kind, value,
            ))
        for fdoc in doc["functions"]:
            consts = []
            for entry in fdoc["consts"]:
                tag = entry[0]
                if tag not in ("v", "g", "f"):
                    raise BytecodeSerializeError(
                        f"unknown const tag {tag!r}"
                    )
                consts.append((tag, entry[1]))
            fn = BytecodeFunction(
                name=fdoc["name"],
                code=array("q", fdoc["code"]),
                consts=consts,
                n_args=fdoc["n_args"],
                n_regs=fdoc["n_regs"],
                entry_pc=fdoc["entry"],
                instrumented=bool(fdoc["instrumented"]),
            )
            bc.functions[fn.name] = fn
        if bc.function_order != list(bc.functions):
            raise BytecodeSerializeError("function table order mismatch")
        return bc
    except BytecodeSerializeError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) \
            as error:
        raise BytecodeSerializeError(f"malformed bytecode payload: {error}")


def bytecode_digest(bc: BytecodeModule) -> str:
    """Stable content digest of a bytecode module."""
    from repro.ir.serialize import payload_digest

    return payload_digest(serialize_bytecode(bc))
