"""Flat register bytecode: the canonical form the VM compiles and runs.

:mod:`repro.vm.codegen` lowers a verified IR module into one
:class:`BytecodeModule`: per function a single ``array('q')`` code stream
of integer opcodes with *pre-resolved* operand slots (constants, arguments
and temps share one flat register file per frame), branch targets resolved
to absolute code offsets, builtin and call targets pre-bound through small
index tables, and CARMOT probes / ROI / OMP markers lowered to inline
opcodes.  :mod:`repro.vm.bcinterp` compiles each function's stream to
one Python function the first time it runs.

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
from typing import Dict, List, Optional, Tuple

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
# call opcodes append ``argc`` trailing argument slots (:func:`decode`
# splits a stream into one tuple per instruction).  Operand slots are
# indices into the frame's flat register file; ``*_pc`` operands are
# absolute offsets into the function's code stream; ``var``/``loc``/string
# operands index the module-level side tables (-1 encodes a None var or
# loc).

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
OP_PROBE_ACCESS = 17   # [is_write, ptr, size, var, count, stride, loc]
OP_PROBE_CLASSIFY = 18  # [states_str, ptr, size, var, count, stride, loc, roi]
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
# 39, 40-49 (schema v2's fused pairs) and 56-71 are retired and
# unassigned: the opcodes after them keep their numbers, and a stream
# that still carries one is refused.

#: IR binop name -> opcode (div/rem carry an extra loc operand for traps).
BINOP_OPCODES: Dict[str, int] = {
    "add": OP_ADD, "sub": OP_SUB, "mul": OP_MUL, "div": OP_DIV,
    "rem": OP_REM, "eq": OP_EQ, "ne": OP_NE, "lt": OP_LT, "le": OP_LE,
    "gt": OP_GT, "ge": OP_GE, "and": OP_AND, "or": OP_OR, "xor": OP_XOR,
    "shl": OP_SHL, "shr": OP_SHR,
}

#: Scalar type codes for load/store/cast operands.
TY_INT = 0
TY_FLOAT = 1
TY_CHAR = 2

#: Opcodes whose word 3 is a scalar type code: load/store ``ty``, cast
#: ``to``.
TYPED_OPCODES = frozenset((OP_LOAD, OP_STORE, OP_CAST))

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
}
OPCODE_NAMES.update({code: name for name, code in BINOP_OPCODES.items()})

#: Fixed operand count per opcode; call opcodes add ``argc`` more.
OPCODE_WIDTHS: Dict[int, int] = {
    OP_LOAD: 4, OP_STORE: 4, OP_ADDR: 5, OP_JUMP: 1, OP_BR: 3,
    OP_CAST: 3, OP_ALLOCA: 4, OP_CALL: 4, OP_CALL_BUILTIN: 5,
    OP_CALL_IND: 5, OP_CALL_MISSING: 2, OP_RET: 1, OP_ROI_BEGIN: 1,
    OP_ROI_END: 1, OP_ROI_RESET: 1, OP_PROBE_ACCESS: 7,
    OP_PROBE_CLASSIFY: 8, OP_PROBE_ESCAPE: 3, OP_OMP_BEGIN: 2,
    OP_OMP_END: 2, OP_OMP_BARRIER: 0,
    OP_ADD: 3, OP_SUB: 3, OP_MUL: 3, OP_DIV: 4, OP_REM: 4, OP_EQ: 3,
    OP_NE: 3, OP_LT: 3, OP_LE: 3, OP_GT: 3, OP_GE: 3, OP_AND: 3,
    OP_OR: 3, OP_XOR: 3, OP_SHL: 3, OP_SHR: 3,
}

#: Opcodes whose width is ``OPCODE_WIDTHS[op] + argc`` (argc operand index
#: relative to the opcode word, used by the disassembler/verifier walk).
CALL_ARGC_INDEX = {OP_CALL: 4, OP_CALL_BUILTIN: 5, OP_CALL_IND: 5,
                   OP_CALL_MISSING: 2}
#: OP_PHI's width is ``2 + 2*k`` (k = first operand).

#: Opcode -> ``(word index, table)`` of each operand that indexes a
#: module side table (or ``function_order`` / ``builtin_order``).
TABLE_OPERANDS: Dict[int, Tuple[Tuple[int, str], ...]] = {
    OP_ALLOCA: ((3, "var"), (4, "loc")),
    OP_CALL: ((1, "function"),),
    OP_CALL_BUILTIN: ((1, "builtin"), (4, "loc")),
    OP_CALL_IND: ((4, "loc"),),
    OP_CALL_MISSING: ((1, "string"),),
    OP_PROBE_ACCESS: ((4, "var"), (7, "loc")),
    OP_PROBE_CLASSIFY: ((1, "string"), (4, "var"), (7, "loc")),
    OP_PROBE_ESCAPE: ((3, "loc"),),
    OP_OMP_BEGIN: ((1, "string"),),
    OP_OMP_END: ((1, "string"),),
    OP_DIV: ((4, "loc"),),
    OP_REM: ((4, "loc"),),
}


def instr_width(code, pc: int) -> int:
    """Total width (opcode word included) of the instruction at ``pc``."""
    op = code[pc]
    if op == OP_PHI:
        return 3 + 2 * code[pc + 1]
    width = 1 + OPCODE_WIDTHS[op]
    argc_at = CALL_ARGC_INDEX.get(op)
    if argc_at is not None:
        width += code[pc + argc_at]
    return width


def decode(fn: "BytecodeFunction", bc: "BytecodeModule") -> List[tuple]:
    """``(pc, words)`` for every instruction of ``fn``, in stream order:
    ``words`` is the tuple of the instruction's words, opcode first and
    call arguments included.  The first call keeps the list on
    ``fn.ops``; later calls return it.

    Raises :class:`BytecodeError` on an unknown opcode, a negative
    argument or phi count, an instruction that runs past the end of
    the code, a register slot outside the frame, an index outside the
    var, loc, string, function or builtin table of ``bc``, or an entry
    pc or branch target that is not the start of an instruction, or a
    load, store or cast type word that is no ``TY_*`` code."""
    if fn.ops is not None:
        return fn.ops
    code = fn.code
    n = len(code)
    n_regs = fn.n_regs
    # table -> (lowest, size): -1 encodes None for a var or a loc only.
    bounds = {"var": (-1, len(bc.var_table)),
              "loc": (-1, len(bc.loc_table)),
              "string": (0, len(bc.string_table)),
              "function": (0, len(bc.function_order)),
              "builtin": (0, len(bc.builtin_order))}
    out = []
    pc = 0
    while pc < n:
        try:
            width = instr_width(code, pc)
        except KeyError:
            raise BytecodeError(
                f"unknown opcode {code[pc]} at {fn.name}+{pc}") from None
        except IndexError:  # a call or phi cut before its count word
            width = n + 1
        # Shorter than its fixed words (a phi has two): a negative count.
        if width <= OPCODE_WIDTHS.get(code[pc], 2):
            raise BytecodeError(f"negative count at {fn.name}+{pc}")
        if pc + width > n:
            raise BytecodeError(f"truncated instruction at {fn.name}+{pc}")
        ins = tuple(code[pc:pc + width])
        for slots in operands(ins):
            for slot in slots:
                if not 0 <= slot < n_regs:
                    raise BytecodeError(
                        f"register slot {slot} out of range ({n_regs} "
                        f"registers) at {fn.name}+{pc}")
        for at, table in TABLE_OPERANDS.get(ins[0], ()):
            lowest, size = bounds[table]
            if not lowest <= ins[at] < size:
                raise BytecodeError(
                    f"{table} index {ins[at]} out of range ({size} "
                    f"entries) at {fn.name}+{pc}")
        if ins[0] in TYPED_OPCODES and not TY_INT <= ins[3] <= TY_CHAR:
            raise BytecodeError(
                f"unknown type code {ins[3]} at {fn.name}+{pc}")
        out.append((pc, ins))
        pc += width
    starts = {pc for pc, _ in out}
    if fn.entry_pc not in starts:
        raise BytecodeError(
            f"entry {fn.entry_pc} is not an instruction start in {fn.name}")
    for pc, ins in out:
        for target in branch_targets(ins):
            if target not in starts:
                raise BytecodeError(
                    f"branch to {target}, not an instruction start, at "
                    f"{fn.name}+{pc}")
    fn.ops = out
    return out


def operands(ins: tuple) -> Tuple[tuple, tuple]:
    """The register slots an instruction reads, and those it writes."""
    op = ins[0]
    if op == OP_LOAD or op == OP_CAST:
        return (ins[2],), (ins[1],)
    if op == OP_STORE or op == OP_PROBE_ESCAPE:
        return ins[1:3], ()
    if op == OP_ADDR or OP_ADD <= op <= OP_SHR:
        return ins[2:4], (ins[1],)
    if op == OP_BR:
        return (ins[1],), ()
    if op == OP_PHI:
        return ins[3::2], ins[4::2]
    if op == OP_ALLOCA:
        return (), (ins[1],)
    if op in (OP_CALL, OP_CALL_BUILTIN, OP_CALL_IND):
        args = ins[5:] if op == OP_CALL else ins[6:]
        if op == OP_CALL_IND:
            args = (ins[1],) + args
        return args, (ins[2],) if ins[2] >= 0 else ()
    if op == OP_RET:
        return (ins[1],) if ins[1] >= 0 else (), ()
    if op == OP_PROBE_ACCESS or op == OP_PROBE_CLASSIFY:
        return (ins[2],) if ins[5] < 0 else (ins[2], ins[5]), ()
    return (), ()


def branch_targets(ins: tuple) -> tuple:
    """The pcs a jump, branch or phi trampoline ``ins`` goes to."""
    op = ins[0]
    if op == OP_JUMP:
        return (ins[1],)
    if op == OP_BR:
        return (ins[2], ins[3])
    if op == OP_PHI:
        return (ins[2],)
    return ()


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------


class BytecodeFunction:
    """One lowered function: code stream + frame layout + const pool.

    The frame register file is ``[consts..., args..., temps...]``:
    ``consts`` entries are tagged ``("v", value)`` literals, ``("g", name)``
    global addresses, or ``("f", name)`` function-pointer values, resolved
    once at link time into ``proto``, the constants compiled code binds.
    """

    __slots__ = ("name", "code", "consts", "n_args", "n_regs", "entry_pc",
                 "instrumented", "arg_base", "proto", "compiled", "lines",
                 "ops")

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
        #: The const pool's values (filled by the interpreter's first link).
        self.proto: Optional[list] = None
        #: Compiled Python forms, by kind (``"fast"``, ``"counted"``),
        #: each generated on first use by :mod:`repro.vm.bcinterp` and
        #: shared by every run over the module.  Never serialized.
        self.compiled: Dict[str, tuple] = {}
        #: Codegen's line table: pc -> the :class:`SourceLoc` of the
        #: instruction there.  Phi trampolines carry their first phi's
        #: loc.  Never serialized (``None`` on a
        #: deserialized module), so bytecode digests do not see it.
        self.lines: Optional[Dict[int, object]] = None
        #: The checked ``(pc, words)`` list, kept by the first
        #: :func:`decode`.  Never serialized.
        self.ops: Optional[List[tuple]] = None


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
        self.var_table = [by_uid.get(var.uid, var) for var in self.var_table]

    def check_rois(self, module) -> None:
        """Check every ROI operand against ``module.rois``.

        ``roi.begin``, ``roi.end`` and ``roi.reset`` name an ROI;
        ``probe.classify`` names one or -1 (none).  :func:`decode` cannot
        check them, because the ROI table is the IR module's.  Raises
        :class:`BytecodeSerializeError` on an id the module lacks.
        """
        rois = module.rois
        for fn in self.functions.values():
            for pc, ins in decode(fn, self):
                op = ins[0]
                if op in (OP_ROI_BEGIN, OP_ROI_END, OP_ROI_RESET):
                    roi = ins[1]
                elif op == OP_PROBE_CLASSIFY and ins[8] != -1:
                    roi = ins[8]
                else:
                    continue
                if roi not in rois:
                    raise BytecodeSerializeError(
                        f"roi {roi} not in the module ({len(rois)} "
                        f"ROIs) at {fn.name}+{pc}")


# ---------------------------------------------------------------------------
# Disassembly
# ---------------------------------------------------------------------------


def disassemble(bc: BytecodeModule) -> str:
    """Human-readable listing of every canonical code stream.  Running
    the module never changes it."""
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
        pc = 0
        n = len(code)
        while pc < n:
            op = code[pc]
            width = instr_width(code, pc)
            operands = ", ".join(str(code[pc + i]) for i in range(1, width))
            text = f"  {pc:5d}: {OPCODE_NAMES.get(op, f'op{op}')}"
            if operands:
                text += f" {operands}"
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
    :class:`BytecodeSerializeError` on any malformed or stale payload,
    a code stream that does not :func:`decode` included."""
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
            if not -1 <= gdoc["var"] < len(bc.var_table):
                raise BytecodeSerializeError(
                    f"global {gdoc['name']!r} has var index {gdoc['var']}"
                    f" out of range ({len(bc.var_table)} entries)"
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
            decode(fn, bc)
            bc.functions[fn.name] = fn
        if bc.function_order != list(bc.functions):
            raise BytecodeSerializeError("function table order mismatch")
        return bc
    except BytecodeSerializeError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError,
            BytecodeError) as error:
        raise BytecodeSerializeError(f"malformed bytecode payload: {error}")


def bytecode_digest(bc: BytecodeModule) -> str:
    """Stable content digest of a bytecode module."""
    from repro.ir.serialize import payload_digest

    return payload_digest(serialize_bytecode(bc))
