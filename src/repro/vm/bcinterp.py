"""The MiniC virtual machine: each function's bytecode compiled to Python.

The first time a run enters a MiniC function, :class:`_Source` generates
one Python function from the function's canonical code stream
(``fn.code``), ``compile()`` turns it into a factory, and the factory is
kept on the :class:`~repro.vm.bytecode.BytecodeFunction` for every later
run over the same :class:`~repro.vm.bytecode.BytecodeModule`.  Each run
instantiates the factories it needs as closures over its own state (the
interpreter, its memory, its hooks), so nothing of one run outlives it.
A deterministic cost model charges every executed IR instruction, and
pluggable :class:`~repro.vm.hooks.ExecutionHooks` observe ROI markers,
probes, allocations and Pin-traced builtin accesses; a run with the
default hooks is the *baseline* every overhead figure divides by.

Shape of a generated function (DESIGN.md §12):

- **Registers are locals**: arguments are parameters and temps plain
  locals; constant slots, side-table entries and MiniC names are closure
  variables bound from a constants tuple.  No MiniC identifier, string
  or literal is ever spliced into the source text.
- **Blocks** dispatch through a binary ``if b < k`` tree inside one
  ``while`` loop, so nesting depth grows with log2 of the block count.
  Phi trampolines run inline on the edge that jumps to them, and a
  block with one incoming edge runs where that edge leaves.
- **Counting per segment.**  A segment is a block, or the part of one
  after a MiniC call.  Its header adds the segment's static instruction
  count, cost and access counts once.  Check points (the entry, loop
  headers, post-call continuations) test the step budget against the
  longest count to the next check point; when it could be crossed the
  frame hands its locals to the *counted* form of the function, which
  counts and budget-checks every instruction as the IR does, so the
  trip point never moves.
- **Spills.**  Before every hook, builtin and call the exact counters
  are written to ``vm.instructions``/``vm.cost`` (hooks read them as
  event time), and ``vm.cost`` is read back after builtins and calls,
  which charge it directly.  A probe site is passed the counters
  instead.
- **Traps map back to their op.**  Every line of generated source has an
  entry in a per-function table: how much of the segment's pre-added
  count, cost and accesses is still ahead of that line.  The frame's
  exception handler corrects the counters by it, so
  ``vm.instructions``/``vm.cost`` after a trap are those of the
  trapping instruction.
- **Loads, stores and probes** call their site's closure, made once per
  run: a load or store site tests the object it resolved last before
  ``Memory._resolve``, which raises every fault; a probe site's closure
  comes from the hooks (:meth:`~repro.vm.hooks.ExecutionHooks.probe_site`),
  with the probe's static operands bound in.
- **MiniC calls are Python calls**; the call-depth ceiling
  (``MAX_CALL_DEPTH``) trips long before Python's recursion limit, which
  this module raises once at import.

The counted form also serves ``--trace`` and the Figure 6 line profiler:
it calls the run's trace callback before every instruction.

Memory: a function that never runs is never compiled; the source text
is dropped once compiled and nothing enters ``linecache``; compiled code
lives on its ``BytecodeModule`` (no process-wide cache), and generated
globals hold only exception types and pure helpers.  ``compile()`` needs
about 1 MB for the largest function of the paper's ports, which is why
the generated text is kept short; the freed memory is handed back to
the system after each compile.  A run drops its closures and the hooks'
back-reference when it exits, so a finished run is freed by reference
counting.
"""

from __future__ import annotations

import re
import struct
import sys
from typing import Dict, List, Optional, Tuple

from repro.builtins_spec import BUILTINS
from repro.errors import BudgetExceeded, TrapError, VMError
from repro.ir.instructions import AccessKind
from repro.lang import types as ct
from repro.resilience.budgets import MAX_CALL_DEPTH, ExecutionBudgets
from repro.vm.builtins import BUILTIN_IMPLS, Xorshift64
from repro.vm.bytecode import (
    OPCODE_NAMES,
    BytecodeError,
    BytecodeFunction,
    BytecodeModule,
    OP_ADD,
    OP_ADDR,
    OP_ALLOCA,
    OP_AND,
    OP_BR,
    OP_CALL,
    OP_CALL_BUILTIN,
    OP_CALL_IND,
    OP_CALL_MISSING,
    OP_CAST,
    OP_DIV,
    OP_EQ,
    OP_GE,
    OP_GT,
    OP_JUMP,
    OP_LE,
    OP_LOAD,
    OP_LT,
    OP_MUL,
    OP_NE,
    OP_OMP_BARRIER,
    OP_OMP_BEGIN,
    OP_OMP_END,
    OP_OR,
    OP_PHI,
    OP_PROBE_ACCESS,
    OP_PROBE_CLASSIFY,
    OP_PROBE_ESCAPE,
    OP_REM,
    OP_RET,
    OP_ROI_BEGIN,
    OP_ROI_END,
    OP_ROI_RESET,
    OP_SHL,
    OP_SHR,
    OP_STORE,
    OP_SUB,
    OP_XOR,
    TY_CHAR,
    TY_FLOAT,
    branch_targets,
    decode,
    operands,
)
from repro.vm.codegen import lower_module
from repro.vm.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.vm.hooks import ExecutionHooks
from repro.vm.memory import (
    FUNC_PTR_BASE,
    SCALAR_CODECS,
    Memory,
    MemoryObject,
    to_int,
)
from repro.vm.result import RunResult

#: One Python frame per MiniC frame, plus the caller's own stack and the
#: hooks: the ceiling must always trip first, on any thread.
if sys.getrecursionlimit() < 4 * MAX_CALL_DEPTH:
    sys.setrecursionlimit(4 * MAX_CALL_DEPTH)

#: Access counts travel packed in one int: var accesses in the low bits.
_ACC_SHIFT = 40
_MEM_ACCESS = 1 << _ACC_SHIFT

#: A load or store site before its first access: lowest address,
#: highest address and object, matching no address.
_NO_SITE = (0, -1, MemoryObject(0, 0, 0, "global", bytearray()))

_CMP_TEXT = {OP_EQ: "==", OP_NE: "!=", OP_LT: "<", OP_LE: "<=",
             OP_GT: ">", OP_GE: ">="}
_NAME = re.compile(r"[A-Za-z_]\w*")
_TERMINATORS = frozenset((OP_JUMP, OP_BR, OP_RET, OP_PHI))
#: Bounds on inlining blocks at their only predecessor: branch arms
#: nested into one another, and blocks inlined in a row.
_INLINE_NEST = 8
_INLINE_CHAIN = 32


def _div_zero(loc):
    raise TrapError(f"division by zero at {loc}")


def _mod_zero(loc):
    raise TrapError(f"modulo by zero at {loc}")


def _div(lhs, rhs, loc):
    """C division of operands that may be floats."""
    if rhs == 0:
        _div_zero(loc)
    if isinstance(lhs, float) or isinstance(rhs, float):
        return lhs / rhs
    result = abs(lhs) // abs(rhs)
    return -result if (lhs < 0) != (rhs < 0) else result


def _rem(lhs, rhs, loc):
    """C remainder of operands that may be floats."""
    if rhs == 0:
        _mod_zero(loc)
    quotient = abs(lhs) // abs(rhs)
    if (lhs < 0) != (rhs < 0):
        quotient = -quotient
    return lhs - quotient * rhs


def _float_overflow():
    # The value is left out: its decimal form can pass Python's
    # int-to-str digit limit.
    raise TrapError("integer too large to convert to a float") from None


def _missing(name):
    raise TrapError(f"call to undefined function {name!r}")


#: The globals of every generated function: exception types and pure
#: helpers, never an interpreter or a module.
_GEN_GLOBALS = {
    "__builtins__": {}, "int": int, "float": float, "abs": abs, "len": len,
    "BaseException": BaseException, "OverflowError": OverflowError,
    "locals": locals, "to_int": to_int, "DZ": _div_zero, "MZ": _mod_zero,
    "DIV": _div, "REM": _rem, "FO": _float_overflow, "MISS": _missing,
}

#: Names a generated function can read from its run
#: (:meth:`BytecodeInterpreter._run_state`); its factory takes the ones
#: it uses.
_RUN_NAMES = (
    "vm", "M", "LIM", "MAXD", "CS", "F", "CF", "CI", "BP", "RD", "X", "TK",
    "AL", "SITES", "HK", "HPC", "HPE", "HRB", "HRE", "HRR", "HOR", "HOB",
    "HCE", "HCX", "HWP", "HPT",
)
_UNPACK = tuple(codec[1] for codec in SCALAR_CODECS)
#: Stores pack masked ints unsigned, which is the C-style wrap of the
#: signed codec byte for byte.
_PACK = (struct.Struct("<Q").pack_into, SCALAR_CODECS[TY_FLOAT][2],
         SCALAR_CODECS[TY_CHAR][2])
#: A stored int wraps C-style: ``int`` to 64 bits, ``char`` to 8.
_STORE_MASK = {0: (1 << 64) - 1, TY_CHAR: 0xFF}


class _Slots:
    """What the generator knows of a function's register slots: how
    often each is read and written, which provably hold ints (their
    ``int()`` conversions are left out) or floats (their ``float()``
    ones), and which hold a link-time constant address."""

    def __init__(self, fn: BytecodeFunction, ops, builtin_order) -> None:
        arg_base = fn.arg_base
        proto = fn.proto
        self.reads: Dict[int, int] = {}
        self.writes: Dict[int, int] = {}
        #: (dst, producer, inputs): producer is "int", "float", "any"
        #: (unknown), "arith" (a float if an input is) or "copy".
        rules = []
        for _, ins in ops:
            op = ins[0]
            reads, writes = operands(ins)
            for slot in reads:
                self.reads[slot] = self.reads.get(slot, 0) + 1
            for slot in writes:
                self.writes[slot] = self.writes.get(slot, 0) + 1
            if op == OP_LOAD or op == OP_CAST:
                rules.append((ins[1], "float" if ins[3] == TY_FLOAT
                              else "int", ()))
            elif OP_ADD <= op <= OP_SHR:
                rules.append((ins[1], _producer(op), ins[2:4]))
            elif op == OP_PHI:
                rules += [(dst, "copy", (src,))
                          for src, dst in zip(ins[3::2], ins[4::2])]
            elif op == OP_CALL_BUILTIN and writes:
                ret = BUILTINS[builtin_order[ins[1]]].return_type
                rules.append((ins[2], "float" if isinstance(
                    ret, ct.FloatType) else "int", ()))
            elif op in (OP_CALL, OP_CALL_IND) and writes:
                rules.append((ins[2], "any", ()))
            else:
                rules += [(dst, "int", ()) for dst in writes]
        consts = {slot for slot in range(arg_base)
                  if slot not in self.writes}
        #: Slots that may hold something other than an int: non-int
        #: constants, arguments, temps never written (``None``), and
        #: whatever flows from them.
        self.nonint = {slot for slot in consts
                       if type(proto[slot]) is not int}
        self.nonint.update(range(arg_base, arg_base + fn.n_args))
        self.nonint.update(slot for slot in range(arg_base, fn.n_regs)
                           if slot not in self.writes
                           and slot >= arg_base + fn.n_args)
        #: Slots that provably hold floats.
        self.floats = {slot for slot in consts
                       if type(proto[slot]) is float}
        self.floats.update(dst for dst, _, _ in rules)
        changed = True
        while changed:
            changed = False
            for dst, producer, inputs in rules:
                if dst not in self.nonint and (
                        producer in ("float", "any") or any(
                            slot in self.nonint for slot in inputs
                            if producer != "int")):
                    self.nonint.add(dst)
                    changed = True
                if dst in self.floats and not (
                        producer == "float"
                        or producer == "copy" and inputs[0] in self.floats
                        or producer == "arith" and any(
                            slot in self.floats for slot in inputs)):
                    self.floats.discard(dst)
                    changed = True
        #: dst -> its value, for ``addr`` of a constant base and index
        #: into the only write of a temp.
        self.const_addrs: Dict[int, int] = {}
        for _, ins in ops:
            if ins[0] == OP_ADDR and self.writes.get(ins[1]) == 1 \
                    and ins[1] >= arg_base and ins[2] in consts \
                    and ins[3] in consts and type(proto[ins[2]]) is int \
                    and type(proto[ins[3]]) is int:
                self.const_addrs[ins[1]] = (proto[ins[2]]
                                            + proto[ins[3]] * ins[4]
                                            + ins[5])


def _producer(op: int) -> str:
    """How a binop's result type follows from its operands: compares and
    bit operations always give ints."""
    return "arith" if op <= OP_REM else "int"


class _Source:
    """Generates the source of one compiled form of one function.

    ``counted`` selects the form: the fast form counts per segment, the
    counted form per instruction (with a budget check and the trace call
    before each).  :meth:`build` returns the source text and the
    constants tuple its factory takes, the per-line trap table included.
    """

    def __init__(self, interp: "BytecodeInterpreter", fn: BytecodeFunction,
                 index: int, counted: bool) -> None:
        self.interp = interp
        self.bc = interp.bytecode
        self.fn = fn
        self.index = index
        self.counted = counted
        self.cm = interp.cost_model
        self.ops = decode(fn, self.bc)
        self.at = {pc: i for i, (pc, _) in enumerate(self.ops)}
        self.slots = _Slots(fn, self.ops, self.bc.builtin_order)
        self.nonint = self.slots.nonint
        self.consts: List[object] = []
        self.const_names: List[str] = []
        self._const_ids: Dict[tuple, str] = {}
        self.lines: List[str] = []
        self.fix: List[object] = [None]  # line numbers start at 1
        self._fix_ids: Dict[object, object] = {}
        self.depth = 0
        #: Pre-added count, cost and accesses still ahead (fast form).
        self.ahead = (0, 0, 0)
        #: Load, store and probe sites: the spec of each one's closure.
        self.sites: List[tuple] = []
        self.has_alloca = any(ins[0] == OP_ALLOCA for _, ins in self.ops)
        arg_base = fn.arg_base
        #: Constant slots some op writes get a local copy of their own.
        self.written_consts = sorted(
            slot for slot in self.slots.writes if 0 <= slot < arg_base)
        #: Parameters: the arguments; the counted form also takes every
        #: other register, so that a fast frame can hand its state over.
        #: (A fast frame's temps are plain locals: codegen defines each
        #: before any use.)
        last = fn.n_regs if counted else arg_base + fn.n_args
        self.params = [f"r{slot}" for slot in range(arg_base, last)]
        if counted:
            self.params += [f"r{slot}" for slot in self.written_consts]
        self._blocks()

    # -- analysis ------------------------------------------------------------

    def _blocks(self) -> None:
        """Split the stream into the blocks reachable from the entry and
        number the leaves of both forms' dispatch trees."""
        fn = self.fn
        leaders = {fn.entry_pc}
        for _, ins in self.ops:
            leaders.update(branch_targets(ins))
        #: start pc -> ops of the block (up to a terminator or a leader).
        self.blocks: Dict[int, list] = {}
        #: start pc -> the leader it falls through to, if any.
        self.falls: Dict[int, int] = {}
        todo = [fn.entry_pc]
        while todo:
            start = todo.pop()
            if start in self.blocks:
                continue
            i = self.at[start]
            body = []
            while True:
                if i == len(self.ops):
                    raise BytecodeError(
                        f"code runs off the end of {fn.name}")
                pc, ins = self.ops[i]
                if body and pc in leaders:
                    self.falls[start] = pc
                    todo.append(pc)
                    break
                body.append((pc, ins))
                if ins[0] in _TERMINATORS:
                    todo.extend(branch_targets(ins))
                    break
                i += 1
            self.blocks[start] = body
        #: pc -> start of the block that holds it.
        self.block_of = {pc: start for start, body in self.blocks.items()
                         for pc, _ in body}
        self.trampolines = {pc for pc, body in self.blocks.items()
                            if body[0][1][0] == OP_PHI}
        resumes = set(self.blocks)
        for body in self.blocks.values():
            for (pc, ins), nxt in zip(body, body[1:]):
                if ins[0] in (OP_CALL, OP_CALL_IND):
                    resumes.add(nxt[0])
        self.counted_ids = {pc: i for i, pc in enumerate(sorted(resumes))}
        #: block start -> [(phi count, successor block)] of its exits, a
        #: trampoline resolved to the block it enters.
        self.exits: Dict[int, list] = {}
        for start, body in self.blocks.items():
            if start in self.trampolines:
                continue
            exits = []
            for target in (*branch_targets(body[-1][1]),
                           *([self.falls[start]] if start in self.falls
                             else [])):
                if target in self.trampolines:
                    (_, phi), = self.blocks[target]
                    exits.append((phi[1], phi[2]))
                else:
                    exits.append((0, target))
            self.exits[start] = exits
        self._windows()
        self._plan_inlining()

    def _plan_inlining(self) -> None:
        """Choose the fast form's dispatch leaves.

        A block with one incoming edge (not the entry, not a check point)
        is emitted where that edge leaves its predecessor, so running
        into it costs no dispatch.  Inlining into a branch arm nests one
        level deeper; both the nesting and the length of an inlined chain
        are bounded, and a block past either bound is a leaf."""
        entry = self.fn.entry_pc
        preds: Dict[int, int] = {}
        for exits in self.exits.values():
            for _, target in exits:
                preds[target] = preds.get(target, 0) + 1
        #: Blocks emitted at their predecessor rather than dispatched.
        self.inlined = set()
        leaves = {entry}
        todo = [(entry, 0, 0)]
        while todo:
            block, nest, chain = todo.pop()
            exits = self.exits[block]
            for _, target in exits:
                deeper = nest + (len(exits) == 2)
                if (target != entry and preds[target] == 1
                        and target not in self.windows
                        and deeper <= _INLINE_NEST and chain < _INLINE_CHAIN):
                    self.inlined.add(target)
                    todo.append((target, deeper, chain + 1))
                elif target not in leaves:
                    leaves.add(target)
                    todo.append((target, 0, 0))
        self.fast_ids = {pc: i for i, pc in enumerate(sorted(leaves))}

    def _windows(self) -> None:
        """Where the fast form checks the step budget, and how far ahead.

        A check point is the entry, a loop header (the target of a
        retreating edge) or the continuation after a MiniC call, whose
        callee ran an unknown count.  Every cycle passes through one, so
        the code between check points is acyclic, and a check point's
        window is the longest count from it to the next check point or a
        return.  Once the check passed, no instruction before the next
        check point can trip the budget, so only check points test it."""
        counts: Dict[int, int] = {}
        succs: Dict[int, list] = {}
        checks = {self.fn.entry_pc}
        for start, body in self.blocks.items():
            if start in self.trampolines:
                continue
            seg, count = start, 0
            for i, (pc, ins) in enumerate(body):
                op = ins[0]
                count += ins[1] if op == OP_PHI else 1
                if op in (OP_CALL, OP_CALL_IND) and i + 1 < len(body):
                    nxt = body[i + 1][0]
                    counts[seg], succs[seg] = count, [(0, nxt)]
                    checks.add(nxt)
                    seg, count = nxt, 0
            counts[seg], succs[seg] = count, self.exits[start]
        # Loop headers: targets of retreating edges of a depth-first walk.
        state = {self.fn.entry_pc: 1}
        stack = [(self.fn.entry_pc, iter(succs[self.fn.entry_pc]))]
        while stack:
            node, edges = stack[-1]
            for _, nxt in edges:
                if state.get(nxt) == 1:
                    checks.add(nxt)
                elif nxt not in state:
                    state[nxt] = 1
                    stack.append((nxt, iter(succs[nxt])))
                    break
            else:
                state[node] = 2
                stack.pop()
        length: Dict[int, int] = {}
        for root in counts:
            todo = [(root, False)]
            while todo:
                node, ready = todo.pop()
                if node in length:
                    continue
                if ready:
                    length[node] = counts[node] + max(
                        [k + (0 if nxt in checks else length[nxt])
                         for k, nxt in succs[node]], default=0)
                    continue
                todo.append((node, True))
                todo.extend((nxt, False) for _, nxt in succs[node]
                            if nxt not in checks and nxt not in length)
        #: check point -> its window.
        self.windows = {pc: length[pc] for pc in checks}

    # -- names -----------------------------------------------------------------

    def _const(self, prefix: str, key, value) -> str:
        """The closure name bound to ``value`` through the constants
        tuple."""
        name = self._const_ids.get((prefix, key))
        if name is None:
            name = f"{prefix}{key}"
            self._const_ids[(prefix, key)] = name
            self.consts.append(value)
            self.const_names.append(name)
        return name

    def reg(self, slot: int) -> str:
        if slot in self.slots.const_addrs:
            return self._const("d", slot, self.slots.const_addrs[slot])
        if slot < self.fn.arg_base and slot not in self.written_consts:
            return self._const("k", slot, self.fn.proto[slot])
        return f"r{slot}"

    def as_int(self, slot: int) -> str:
        name = self.reg(slot)
        return f"int({name})" if slot in self.nonint else name

    def loc(self, index: int) -> str:
        if index < 0:
            return "None"
        return self._const("L", index, self.bc.loc_table[index])

    def var(self, index: int) -> str:
        if index < 0:
            return "None"
        return self._const("V", index, self.bc.var_table[index])

    def string(self, index: int) -> str:
        return self._const("S", index, self.bc.string_table[index])

    def fname(self, index: int) -> str:
        return self._const("N", index, self.interp._fns[index].name)

    # -- emission --------------------------------------------------------------

    def line(self, text: str, mode: str = "fix") -> None:
        """Emit one line; ``mode`` says how a trap on it is unwound:
        ``fix`` corrects the counters by what is still ahead, ``leave``
        keeps the counters the callee or builtin left in ``vm``, ``skip``
        leaves everything to the counted form the frame handed off to."""
        ic, cost, acc = self.ahead
        if mode == "fix":
            entry = (ic, cost, acc)
        elif mode == "leave":
            entry = (None, None, acc)
        else:
            entry = None
        entry = self._fix_ids.setdefault(entry, entry)
        if "{" in text:
            text = (text.replace("{IC}", f"ic - {ic}" if ic else "ic")
                    .replace("{COST}", f"cost - {cost}" if cost else "cost")
                    .replace("{D}", f" + {cost}" if cost else ""))
        self.lines.append(" " * self.depth + text)
        self.fix.append(entry)

    def build(self) -> Tuple[str, tuple]:
        """The source of the factory ``_mk(K, <run names>)`` and its
        constants tuple ``K``."""
        fn = self.fn
        counted = self.counted
        ids = self.counted_ids if counted else self.fast_ids
        entry = ids[fn.entry_pc]
        leaves = sorted(ids, key=ids.get)
        # The body comes first, so that every closure name it uses is
        # known when the prologue is written.
        self.depth = 3
        if counted or len(leaves) > 1 or self._loops(fn.entry_pc):
            if not counted:  # the counted form takes ``b`` as a parameter
                self.line(f"b = {entry}")
            self.line("while True:")
            self.depth = 4
        self._tree(leaves, 0, len(leaves))
        body, body_fix = self.lines, self.fix[1:]
        self.lines, self.fix = [], [None]
        self.ahead = (0, 0, 0)
        inits = [f"r{slot} = {self._const('k', slot, fn.proto[slot])}"
                 for slot in self.written_consts]
        fix_name = self._const("FX", "", None)
        name = self.fname(self.index)
        sites = (self._const("Z", "", tuple(self.sites)) if self.sites
                 else None)
        self.depth = 0
        self.line("def _mk(K, @RUN@):")
        self.depth = 1
        self.line(f"{', '.join(self.const_names)}, = K")
        if sites:
            self.line(f"{', '.join(f'm{n}' for n in range(len(self.sites)))}"
                      f", = SITES({sites})")
        params = "".join(f", {reg}=None" for reg in self.params)
        if counted:
            params += f", b={entry}, ic=None, cost=0, ac=0, so=None"
        self.line(f"def f(cs{params}):")
        self.depth = 2
        if counted:
            self.line("if ic is None:")
            self.depth = 3
        # Entry: a call from MiniC (``cs`` is the caller's call stack) is
        # depth-checked, pushed and announced; the run's entry is not.
        self.line("ic = vm.instructions; cost = vm.cost; ac = 0")
        self.line("if cs:")
        self.line(f" if len(cs) >= MAXD: RD({name})")
        self.line(f" CS.append({name}); cost += HCE({name}, "
                  f"{fn.instrumented})")
        self.line(f"cs += ({name},)")
        if self.has_alloca:
            self.line("so = []")
        for init in inits:
            self.line(init)
        self.depth = 2
        self.line("try:")
        self.lines.extend(body)
        self.fix.extend(body_fix)
        self.line("except BaseException as e:")
        self.depth = 3
        self.line(f"X(e, {fix_name}, ic, cost, ac)")
        self.line("raise")
        self.depth = 1
        self.line("return f")
        text = "\n".join(self.lines) + "\n"
        names = set(_NAME.findall(text))
        run = [name for name in _RUN_NAMES if name in names]
        consts = list(self.consts)
        consts[self.const_names.index(fix_name)] = self.fix
        return text.replace("@RUN@", ", ".join(run)), tuple(consts)

    def _loops(self, start: int) -> bool:
        """Whether the block at ``start`` can reach a dispatch again."""
        for pc, ins in self.blocks[start]:
            if ins[0] in _TERMINATORS and ins[0] != OP_RET:
                return True
        return start in self.falls

    def _tree(self, leaves: List[int], lo: int, hi: int) -> None:
        if hi - lo == 1:
            self._leaf(leaves[lo])
            return
        mid = (lo + hi) // 2
        self.line(f"if b < {mid}:")
        self.depth += 1
        self._tree(leaves, lo, mid)
        self.depth -= 1
        self.line("else:")
        self.depth += 1
        self._tree(leaves, mid, hi)
        self.depth -= 1

    def _leaf(self, start: int) -> None:
        """Emit the code that runs from ``start`` to the next dispatch.

        In the fast form a trampoline or an inlined block reached by a
        jump or a fall-through joins the segment it continues, under one
        header."""
        block = self.block_of[start]
        body = self.blocks[block]
        body = body[[pc for pc, _ in body].index(start):]
        segment: list = []
        while True:
            start = self._ops(body, segment, start)
            if start is None:
                return
            if block in self.falls:
                segment.append(("goto", self.falls[block]))
            last = segment[-1] if segment and not self.counted else None
            if last is None or last[0] != "goto":
                break
            block = last[1]
            if block not in self.trampolines and block not in self.inlined:
                break
            body = self.blocks[block]
            segment.pop()
        self._segment(segment, start)

    def _ops(self, body: list, segment: list, start: int) -> Optional[int]:
        """Append the items of ``body`` to ``segment``, emitting the
        segments that end at a MiniC call on the way; returns the start of
        the open segment (None when the counted form ended its leaf)."""
        i = 0
        while i < len(body):
            pc, ins = body[i]
            op = ins[0]
            nxt = body[i + 1][1] if i + 1 < len(body) else None
            if (op in _CMP_TEXT and not self.counted and nxt is not None
                    and nxt[0] == OP_BR and nxt[1] == ins[1]
                    and self.slots.reads.get(ins[1]) == 1):
                # A compare only its branch reads: one ``if`` on it (the
                # counted form keeps both, as the line profiler sees them).
                segment += self._op(pc, ins, body[i + 1])
                i += 2
                continue
            segment += self._op(pc, ins)
            i += 1
            if op in (OP_CALL, OP_CALL_IND) and i < len(body):
                # The rest of the block is a segment of its own, and in
                # the counted form a dispatch leaf of its own.
                if self.counted:
                    segment.append(("goto", body[i][0]))
                    self._segment(segment, start)
                    return None
                self._segment(segment, start)
                start = body[i][0]
                segment.clear()
        return start

    def _segment(self, items: list, resume: int) -> None:
        """Emit one segment: in the fast form, its header first."""
        if not self.counted:
            count = cost = acc = 0
            for item in items:
                kind = item[0]
                if kind == "n":
                    count += 1
                elif kind == "c":
                    cost += item[1]
                elif kind == "a":
                    acc += item[1]
                elif kind == "u":
                    count += item[1]
            self.ahead = (0, 0, 0)
            window = self.windows.get(resume)
            if window is not None:
                self.line(f"if ic + {window} > LIM: return CF({self.index}, "
                          f"{self.counted_ids[resume]}, ic, locals())",
                          "skip")
            adds = [f"ic += {count}"]
            if cost:
                adds.append(f"cost += {cost}")
            if acc:
                adds.append(f"ac += {acc}")
            self.line("; ".join(adds))
            self.ahead = (count, cost, acc)
        for item in items:
            self._item(item)

    def _item(self, item: tuple) -> None:
        kind = item[0]
        if kind == "l":
            self.line(item[1], item[2] if len(item) > 2 else "fix")
            return
        ic, cost, acc = self.ahead
        if kind == "n":
            if not self.counted:
                self.ahead = (ic - 1, cost, acc)
            else:
                self.line(f"ic = TK(ic, cost, {self.index}, {item[1]}, "
                          f"{item[2]})", "leave")
        elif kind == "u":
            if not self.counted:
                self.ahead = (ic - item[1], cost, acc)
            elif item[1]:
                self.line(f"ic += {item[1]}")
        elif kind == "c":
            if self.counted:
                self.line(f"cost += {item[1]}")
            else:
                self.ahead = (ic, cost - item[1], acc)
        elif kind == "a":
            if self.counted:
                self.line(f"ac += {item[1]}")
            else:
                self.ahead = (ic, cost, acc - item[1])
        elif kind == "if":
            _, test, arms = item
            saved = self.ahead
            for n, arm in enumerate(arms):
                self.line(test if n == 0 else "else:")
                self.depth += 1
                for sub in arm:
                    self._item(sub)
                self.depth -= 1
                self.ahead = saved
        elif kind == "goto":
            self._goto(item[1])
        else:
            raise AssertionError(kind)

    def _goto(self, target: int) -> None:
        if self.counted:
            self.line(f"b = {self.counted_ids[target]}")
        elif target in self.trampolines:
            saved = self.ahead
            (pc, ins), = self.blocks[target]
            self._segment(self._op(pc, ins), target)
            self.ahead = saved
        elif target in self.inlined:
            saved = self.ahead
            self._leaf(target)
            self.ahead = saved
        else:
            self.line(f"b = {self.fast_ids[target]}")

    # -- opcodes ---------------------------------------------------------------

    def _op(self, pc: int, ins: tuple, branch: Optional[tuple] = None
            ) -> list:
        """The items of one instruction, in the order the IR runs them:
        ``n`` its count (budget-checked and traced in the counted form),
        ``u`` unchecked counts, ``c`` a static charge, ``a`` an access
        count, ``l`` a line, ``if`` a two-armed branch, ``goto`` a block
        transfer.
        ``branch`` is the ``(pc, words)`` of a ``br`` on the compare
        ``ins`` computes, emitted as one ``if`` on the compare."""
        op = ins[0]
        cm = self.cm
        items: list = [("n", pc, op)]
        if op == OP_LOAD or op == OP_STORE:
            items += self._access(op == OP_STORE, *ins[1:])
        elif op == OP_ADDR and ins[1] in self.slots.const_addrs:
            items.append(("c", cm.addr))
        elif op == OP_ADDR:
            _, dst, base, index, scale, offset = ins
            expr = self.as_int(base)
            if not (index < self.fn.arg_base and index not in self.nonint
                    and self.fn.proto[index] == 0):
                expr += f" + {self.as_int(index)}"
                if scale != 1:
                    expr += f" * {scale}"
            if offset:
                expr += f" + {offset}"
            items += [("l", f"{self.reg(dst)} = {expr}"), ("c", cm.addr)]
        elif branch is not None:
            br_pc, br = branch
            test = f"if {self.reg(ins[2])} {_CMP_TEXT[op]} {self.reg(ins[3])}:"
            items += [("c", cm.arith), ("n", br_pc, OP_BR), ("c", cm.branch),
                      ("if", test, ([("goto", br[2])], [("goto", br[3])]))]
        elif OP_ADD <= op <= OP_SHR:
            items += self._binop(op, *ins[1:4], ins[4] if len(ins) > 4
                                 else -1)
            items.append(("c", cm.arith))
        elif op == OP_BR:
            _, cond, on_true, on_false = ins
            name = self.reg(cond)
            test = (f"if {name}:" if cond not in self.nonint
                    else f"if {name} != 0:")
            items += [("c", cm.branch),
                      ("if", test, ([("goto", on_true)],
                                    [("goto", on_false)]))]
        elif op == OP_JUMP:
            items += [("c", cm.branch), ("goto", ins[1])]
        elif op == OP_PHI:
            k = ins[1]
            pairs = [(ins[3 + 2 * i], ins[4 + 2 * i]) for i in range(k)]
            pairs = [(src, dst) for src, dst in pairs if src != dst]
            items += [("u", k - 1), ("c", cm.arith * k)]
            if pairs:
                items.append(("l", ", ".join(self.reg(d) for _, d in pairs)
                              + " = " + ", ".join(self.reg(s)
                                                  for s, _ in pairs)))
            items.append(("goto", ins[2]))
        elif op == OP_CAST:
            items += self._cast(*ins[1:])
            items.append(("c", cm.cast))
        elif op == OP_PROBE_ACCESS:
            items += self._probe(*ins[1:])
        elif op == OP_CALL:
            items += self._call(ins)
        elif op == OP_CALL_BUILTIN:
            items += self._builtin(ins)
        elif op == OP_CALL_IND:
            args = ", ".join(self.reg(slot) for slot in ins[6:])
            call = (f"CI({self.as_int(ins[1])}, [{args}], cs, {ins[3]}, "
                    f"{self.loc(ins[4])})")
            items += [("l", "vm.instructions = {IC}; vm.cost = {COST}"),
                      ("l", self._assign(ins[2], call), "leave"),
                      ("l", "ic = vm.instructions; cost = vm.cost")]
        elif op == OP_CALL_MISSING:
            items += [("c", cm.call),
                      ("l", f"MISS({self.string(ins[1])})")]
        elif op == OP_RET:
            if self.has_alloca:
                items.append(("l", "M.clock = {IC}"))
                items.append(("l", "for o in so: M.release_stack_object(o)"))
            value = "None" if ins[1] < 0 else self.reg(ins[1])
            name = self.fname(self.index)
            items += [("l", "CS.pop()"), ("c", cm.ret),
                      ("l", "vm.instructions = ic; vm.cost = cost"),
                      ("l", f"if len(cs) > 1: vm.cost = cost + HCX({name})"),
                      ("l", f"vm._acc += ac; return {value}")]
        elif op == OP_ALLOCA:
            _, dst, size, var, loc = ins
            items += [("l", f"{self.reg(dst)} = AL({size}, {self.var(var)}, "
                            f"{self.loc(loc)}, cs, so, {{IC}}, {{COST}})",
                       "leave"),
                      ("c", cm.alloca), ("l", "cost = vm.cost{D}")]
        elif op in (OP_ROI_BEGIN, OP_ROI_END, OP_ROI_RESET):
            hook = {OP_ROI_BEGIN: "HRB", OP_ROI_END: "HRE",
                    OP_ROI_RESET: "HRR"}[op]
            items += self._hook(hook, ins[1])
            items.append(("c", cm.roi_marker))
        elif op == OP_PROBE_CLASSIFY:
            _, states, ptr, size, var, count, stride, loc, roi = ins
            items += self._hook(
                "HPC", self.string(states), self.as_int(ptr), size,
                self.var(var), self._count(count), stride, self.loc(loc),
                roi if roi >= 0 else None)
        elif op == OP_PROBE_ESCAPE:
            _, val, ptr, loc = ins
            items += self._hook("HPE", self.as_int(val), self.as_int(ptr),
                                self.loc(loc))
        elif op in (OP_OMP_BEGIN, OP_OMP_END):
            begin = op == OP_OMP_BEGIN
            items += self._hook("HOR", self.string(ins[1]), ins[2], begin)
            items.append(("c", cm.roi_marker))
        elif op == OP_OMP_BARRIER:
            items += self._hook("HOB")
            items.append(("c", cm.roi_marker))
        else:
            raise VMError(f"unknown opcode {op} at {self.fn.name}+{pc}")
        return items

    def _assign(self, dst: int, expr: str) -> str:
        return expr if dst < 0 else f"{self.reg(dst)} = {expr}"

    def _count(self, slot: int) -> str:
        return "1" if slot < 0 else self.as_int(slot)

    def _hook(self, hook: str, *args) -> list:
        """A hook call, with the exact counters spilled first."""
        args = "".join(f", {arg}" for arg in args)
        return [("l", f"cost += HK({{IC}}, {{COST}}, {hook}{args})")]

    def _probe(self, is_write: int, ptr: int, size: int, var: int,
               count: int, stride: int, loc: int) -> list:
        """``probe.access``: the site's closure, given the exact
        counters."""
        site = self._site(
            "probe", is_write, size,
            self.bc.var_table[var] if var >= 0 else None, stride,
            self.bc.loc_table[loc] if loc >= 0 else None)
        count = "" if count < 0 else f", {self.as_int(count)}"
        return [("l", f"cost += {site}({{IC}}, {{COST}}, {self.as_int(ptr)}, "
                      f"cs{count})")]

    def _site(self, *spec) -> str:
        """The name of a per-run closure for one load, store or probe
        site; the factory makes them all from their ``spec`` tuples."""
        self.sites.append(spec)
        return f"m{len(self.sites) - 1}"

    def _access(self, store: bool, reg: int, ptr: int, ty: int,
                is_var: int) -> list:
        """A load into or a store from ``reg`` through the site's
        accessor, which tests the object the site resolved last."""
        size = 1 if ty == TY_CHAR else 8
        addr = self.as_int(ptr)
        if store:
            value = self.reg(reg)
            if ty == TY_FLOAT:
                if reg not in self.slots.floats:
                    value = f"float({value})"
            elif reg in self.nonint:
                value = f"int({value})"
            site = self._site("write", size, ty)
            line = f"{site}({addr}, {value})"
        else:
            site = self._site("read", size, ty)
            line = f"{self.reg(reg)} = {site}({addr})"
        return [("l", line), ("a", 1 if is_var else _MEM_ACCESS),
                ("c", self.cm.store if store else self.cm.load)]

    def _binop(self, op: int, dst: int, lhs: int, rhs: int,
               loc: int) -> list:
        a, b = self.reg(lhs), self.reg(rhs)
        out = self.reg(dst)
        ints = lhs not in self.nonint and rhs not in self.nonint
        if op == OP_ADD:
            return [("l", f"{out} = {a} + {b}")]
        if op == OP_SUB:
            return [("l", f"{out} = {a} - {b}")]
        if op == OP_MUL:
            return [("l", f"{out} = {a} * {b}")]
        if op in _CMP_TEXT:
            return [("l", f"{out} = 1 if {a} {_CMP_TEXT[op]} {b} else 0")]
        if op in (OP_DIV, OP_REM):
            where = self.loc(loc)
            if not ints:
                helper = "DIV" if op == OP_DIV else "REM"
                return [("l", f"{out} = {helper}({a}, {b}, {where})")]
            if op == OP_DIV:
                return [("l", f"if {b} == 0: DZ({where})"),
                        ("l", f"q = abs({a}) // abs({b}); "
                              f"{out} = -q if ({a} < 0) != ({b} < 0) "
                              f"else q")]
            return [("l", f"if {b} == 0: MZ({where})"),
                    ("l", f"q = abs({a}) % abs({b}); "
                          f"{out} = -q if {a} < 0 else q")]
        a, b = self.as_int(lhs), self.as_int(rhs)
        if op == OP_AND:
            return [("l", f"{out} = {a} & {b}")]
        if op == OP_OR:
            return [("l", f"{out} = {a} | {b}")]
        if op == OP_XOR:
            return [("l", f"{out} = {a} ^ {b}")]
        if op == OP_SHL:
            return [("l", f"{out} = {a} << ({b} & 63)")]
        return [("l", f"{out} = {a} >> ({b} & 63)")]

    def _cast(self, dst: int, src: int, to: int) -> list:
        out, value = self.reg(dst), self.reg(src)
        if to == TY_FLOAT and src in self.slots.floats:
            return [("l", f"{out} = {value}")]
        if to == TY_FLOAT:
            return [("l", f"try: {out} = float({value})"),
                    ("l", "except OverflowError: FO()")]
        if src in self.nonint:
            value = f"to_int({value})"
        if to == TY_CHAR:
            value = f"{value} & 255"
        return [("l", f"{out} = {value}")]

    def _call(self, ins: tuple) -> list:
        """A direct MiniC call: the callee's Python function, entered
        with the counters spilled and left with them reloaded (the
        callee checks the depth and runs the call hooks)."""
        _, index, dst, pin, argc = ins[:5]
        callee = self.interp._fns[index]
        args = "".join(f", {self.reg(slot)}"
                       for slot in ins[5:5 + min(argc, callee.n_args)])
        items = [("c", self.cm.call)]
        if pin:
            items.append(("l", "if HWP(): vm.instructions = {IC}; "
                               "vm.cost = {COST}; cost += HPT()"))
        return items + [
            ("l", "vm.instructions = {IC}; vm.cost = {COST}"),
            ("l", self._assign(dst, f"F[{index}](cs{args})"), "leave"),
            ("l", "ic = vm.instructions; cost = vm.cost"),
        ]

    def _builtin(self, ins: tuple) -> list:
        _, index, dst, pin, loc, argc = ins[:6]
        name, impl, base_cost = self.interp._linked_builtins[index]
        impl_name = self._const("B", index, impl)
        args = ", ".join(self.reg(slot) for slot in ins[6:])
        items = [("c", self.cm.call)]
        setup = "vm.instructions = {IC}; vm.cost = {COST}"
        if BUILTINS[name].allocates:
            setup = f"vm._alloc_loc = {self.loc(loc)}; M.clock = " + setup
        elif name == "free":
            setup = "M.clock = " + setup
        call = (f"BP({impl_name}, [{args}])" if pin
                else f"{impl_name}(vm, [{args}])")
        items += [("l", setup),
                  ("l", self._assign(dst, call), "leave"),
                  ("l", "cost = vm.cost{D}"),
                  ("c", base_cost)]
        return items


def _compile(interp: "BytecodeInterpreter", fn: BytecodeFunction,
             index: int, kind: str) -> tuple:
    """Generate and compile one form of ``fn``: ``(cost model, factory,
    constants)``.  The source text is dropped here."""
    source, consts = _Source(interp, fn, index, kind == "counted").build()
    namespace: Dict[str, object] = {}
    exec(compile(source, "<bytecode>", "exec"), _GEN_GLOBALS, namespace)
    del source
    _release_freed_memory()
    return interp.cost_model, namespace["_mk"], consts


def _release_freed_memory() -> None:
    """Hand the C heap's free pages back to the system.

    ``compile()`` allocates about 2 KB of parser and compiler memory per
    instruction and frees it on return, but glibc keeps freed pages, per
    thread, for reuse; a daemon whose worker threads each compile would
    keep each thread's high-water mark resident.  ``malloc_trim`` (a few
    microseconds) returns them.  Elsewhere this does nothing."""
    global _malloc_trim
    if _malloc_trim is None:
        import ctypes

        try:
            _malloc_trim = ctypes.CDLL(None).malloc_trim
        except (AttributeError, OSError):
            _malloc_trim = False
        else:
            _malloc_trim.argtypes = [ctypes.c_size_t]
            _malloc_trim.restype = ctypes.c_int
    if _malloc_trim:
        _malloc_trim(0)


#: glibc's ``malloc_trim``, looked up on first use (False: not there).
_malloc_trim = None


def _trace_printer(stream, names):
    """The ``--trace`` callback: one line per instruction."""
    def trace(fi, pc, op, ic, cost):
        print(f"trace: [{ic}] {names[fi]}+{pc} {OPCODE_NAMES[op]}",
              file=stream)
    return trace


class _LineTracer:
    """The line-profile callback of the counted form.

    Each call charges the cost accrued since the previous call to the
    previous instruction: an instruction's cost includes the hooks it
    reached and its builtin work.  Costs add up per pc, and :meth:`close`
    folds the pcs into source lines through codegen's ``fn.lines`` table.
    """

    def __init__(self, bytecode: BytecodeModule):
        functions = [bytecode.functions[name]
                     for name in bytecode.function_order]
        if any(fn.lines is None for fn in functions):
            raise VMError("bytecode has no line table; lower it from IR")
        self.line_costs: Dict[Tuple[str, int], int] = {}
        self._functions = functions
        #: per function: {pc: cost}; a pc is present once it has executed.
        self._pc_costs: List[Dict[int, int]] = [{} for _ in functions]
        self._fi = -1
        self._acc: Dict[int, int] = {}
        self._pc = 0
        self._cost = 0

    def __call__(self, fi, pc, op, ic, cost) -> None:
        acc = self._acc
        acc[self._pc] = acc.get(self._pc, 0) + cost - self._cost
        if fi != self._fi:
            self._fi = fi
            self._acc = self._pc_costs[fi]
        self._pc = pc
        self._cost = cost

    def close(self, cost: int) -> None:
        """Charge the last instruction, which ran up to ``cost``, and
        fold the per-pc costs into :attr:`line_costs`."""
        self(self._fi, 0, 0, 0, cost)
        line_costs = self.line_costs
        for fn, acc in zip(self._functions, self._pc_costs):
            for pc, amount in acc.items():
                loc = fn.lines[pc]
                if loc is not None:
                    key = (loc.filename, loc.line)
                    line_costs[key] = line_costs.get(key, 0) + amount


class BytecodeInterpreter:
    """Executes one bytecode module.  Create a fresh engine per run."""

    def __init__(
        self,
        bytecode: BytecodeModule,
        hooks: Optional[ExecutionHooks] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        max_instructions: int = 2_000_000_000,
        budgets: Optional[ExecutionBudgets] = None,
        trace_stream=None,
    ) -> None:
        self.bytecode = bytecode
        self.hooks = hooks or ExecutionHooks()
        self.cost_model = cost_model
        self.max_instructions = max_instructions
        self.budgets = budgets
        #: Most frames active at once: the depth budget, else the
        #: ceiling every run has (budgets cannot exceed it).
        self.max_recursion_depth = MAX_CALL_DEPTH
        self.memory = Memory()
        if budgets is not None:
            if budgets.max_steps:
                self.max_instructions = budgets.max_steps
            self.max_recursion_depth = (budgets.max_recursion_depth
                                        or MAX_CALL_DEPTH)
            self.memory.heap_limit = budgets.max_heap_bytes
        self.rng = Xorshift64()
        self.output: List[str] = []
        self.cost = 0
        self.instructions = 0
        self.access_counts = {"var": 0, "mem": 0}
        self.call_stack: List[str] = []
        self._pin_active = False
        self._return_value: object = None
        #: Allocation-site loc for builtins that heap-allocate (the loc of
        #: the instruction after the call).
        self._alloc_loc = None
        #: Packed access counts the generated frames flush into.
        self._acc = 0
        #: The counted form's per-instruction callback, or None.
        self._trace = None
        self._line_tracer: Optional[_LineTracer] = None
        self._globals_addr = {}
        #: Per run: the function table, the counted forms, the run tuple.
        self._F: Optional[list] = None
        self._CF: Optional[list] = None
        self._R: Optional[dict] = None
        self._link()
        if trace_stream is not None:
            self._trace = _trace_printer(
                trace_stream, [fn.name for fn in self._fns])

    # -- setup -------------------------------------------------------------

    def _init_globals(self) -> None:
        for gvar in self.bytecode.globals:
            var = (self.bytecode.var_table[gvar.var_index]
                   if gvar.var_index >= 0 else None)
            obj = self.memory.allocate(
                gvar.size, "global", var=var, callstack=("<static>",)
            )
            self._globals_addr[gvar.name] = obj.base
            if gvar.init_kind == "str":
                payload = gvar.init.encode("utf-8") + b"\0"
                self.memory.write_bytes(obj.base, payload)
            elif gvar.init_kind == "float":
                self.memory.write_scalar(obj.base, float(gvar.init), ct.FLOAT)
            elif gvar.init_kind == "int":
                self.memory.write_scalar(obj.base, int(gvar.init), ct.INT)

    def _link(self) -> None:
        """Allocate globals for this run and (once per module) check every
        code stream and resolve const pools, call targets, and function
        addresses.

        Global and function addresses are bump-allocated deterministically
        from the module's own tables, so the resolved frame prototypes and
        address maps are cached on the :class:`BytecodeModule` and shared
        by every interpreter over it.
        """
        bc = self.bytecode
        self._init_globals()
        self._fns = [bc.functions[name] for name in bc.function_order]
        self._index = {fn.name: i for i, fn in enumerate(self._fns)}
        if bc._linked is None:
            for fn in self._fns:
                decode(fn, bc)
            func_addrs = {}
            names = list(bc.function_order) + list(bc.builtin_order)
            for index, name in enumerate(names):
                func_addrs[name] = FUNC_PTR_BASE + index
            linked_builtins = []
            for name in bc.builtin_order:
                spec = BUILTINS.get(name)
                impl = BUILTIN_IMPLS.get(name)
                if spec is None or impl is None:
                    raise VMError(
                        f"bytecode references unknown builtin {name!r}")
                linked_builtins.append((name, impl, spec.base_cost))
            # Indirect-call resolution: address -> builtin or function
            # index; builtins shadow module functions of the same name.
            addr_targets = {}
            for name, addr in func_addrs.items():
                if name in BUILTINS:
                    addr_targets[addr] = (
                        True,
                        (name, BUILTIN_IMPLS[name], BUILTINS[name].base_cost),
                    )
                else:
                    addr_targets[addr] = (False, self._index[name])
            for fn in self._fns:
                resolved: List[object] = []
                for tag, payload in fn.consts:
                    if tag == "v":
                        resolved.append(payload)
                    elif tag == "g":
                        addr = self._globals_addr.get(payload)
                        if addr is None:
                            raise VMError(
                                f"bytecode references undefined global "
                                f"{payload!r}")
                        resolved.append(addr)
                    else:
                        addr = func_addrs.get(payload)
                        if addr is None:
                            raise VMError(
                                f"bytecode references undefined function "
                                f"{payload!r}")
                        resolved.append(addr)
                fn.proto = resolved
            bc._linked = (linked_builtins, addr_targets)
        self._linked_builtins, self._addr_targets = bc._linked

    # -- public API --------------------------------------------------------

    def enable_line_tracing(self) -> Dict[Tuple[str, int], int]:
        """Attribute cost per source line (the Figure 6 profiler).

        Returns the ``(filename, line) -> cost`` map the run fills in.
        Needs codegen's line table, so the module must come from
        :func:`~repro.vm.codegen.lower_module` (a deserialized artifact
        has none).  The run uses the counted form throughout.
        """
        if self._trace is not None:
            raise VMError("line tracing and an execution trace share one "
                          "trace slot")
        tracer = _LineTracer(self.bytecode)
        self._trace = self._line_tracer = tracer
        return tracer.line_costs

    def run(self, entry: str = "main", args: Tuple = ()) -> RunResult:
        fn = self.bytecode.functions.get(entry)
        if fn is None:
            raise VMError(f"no function named {entry!r}")
        setattr(self.hooks, "vm", self)
        kind = "fast" if self._trace is None else "counted"
        self._F = [self._stub(i, kind) for i in range(len(self._fns))]
        self._CF = [None] * len(self._fns)
        self._R = self._run_state()
        self.call_stack.append(entry)
        try:
            self._return_value = self._F[self._index[entry]](
                (), *args[:fn.n_args])
            if self._line_tracer is not None:
                self._line_tracer.close(self.cost)
            self.hooks.finish()
        finally:
            # Break every reference cycle through this run (its closures
            # reach its function table, the hooks reach this engine), so
            # that it is freed by reference counting.
            self._F.clear()
            self._F = self._CF = self._R = None
            setattr(self.hooks, "vm", None)
            acc, self._acc = self._acc, 0
            self.access_counts["var"] += acc & (_MEM_ACCESS - 1)
            self.access_counts["mem"] += acc >> _ACC_SHIFT
        return RunResult(
            return_value=self._return_value,
            cost=self.cost,
            baseline_cost=self.cost,  # overwritten by harnesses that know it
            instructions=self.instructions,
            output=self.output,
            access_counts=dict(self.access_counts),
            leaked_bytes=self.memory.leaked_bytes,
        )

    # -- helpers used by builtins ------------------------------------------

    def heap_alloc(self, size: int) -> MemoryObject:
        obj = self.memory.allocate(
            size, "heap", callstack=tuple(self.call_stack),
            loc=self._alloc_loc,
        )
        self.cost += self.hooks.on_alloc(obj)
        return obj

    def heap_free(self, addr: int) -> None:
        if addr == 0:
            return
        obj = self.memory.free(addr)
        self.cost += self.hooks.on_free(obj)

    def native_read(self, addr: int, size: int) -> bytes:
        if self._pin_active and size > 0:
            self.cost += self.hooks.on_pin_access(AccessKind.READ, addr, size)
        return self.memory.read_bytes(addr, size)

    def native_write(self, addr: int, payload: bytes) -> None:
        if self._pin_active and payload:
            self.cost += self.hooks.on_pin_access(
                AccessKind.WRITE, addr, len(payload)
            )
        self.memory.write_bytes(addr, payload)

    def charge_bytes(self, count: int) -> None:
        self.cost += int(count * self.cost_model.builtin_per_byte)

    def reseed(self, seed: int) -> None:
        self.rng = Xorshift64(seed or 1)

    # -- the run's compiled functions --------------------------------------

    def _run_state(self) -> dict:
        """The run names every generated factory of this run binds."""
        hooks = self.hooks
        memory = self.memory
        state = {
            "vm": self, "M": memory, "SITES": self._sites,
            "HK": self._hook_call,
            "LIM": self.max_instructions,
            "MAXD": self.max_recursion_depth, "CS": self.call_stack,
            "F": self._F, "CF": self._handoff, "CI": self._call_indirect,
            "BP": self._pinned_builtin, "RD": self._depth_exceeded,
            "X": self._unwind, "TK": self._tick, "AL": self._alloca,
            "HPC": hooks.on_probe_classify,
            "HPE": hooks.on_probe_escape, "HRB": hooks.on_roi_begin,
            "HRE": hooks.on_roi_end, "HRR": hooks.on_roi_reset,
            "HOR": hooks.on_omp_region, "HOB": hooks.on_omp_barrier,
            "HCE": hooks.on_call_enter, "HCX": hooks.on_call_exit,
            "HWP": hooks.wants_pin, "HPT": hooks.on_pin_attach,
        }
        return state

    def _instance(self, index: int, kind: str):
        """This run's closure of one compiled form of function
        ``index``, compiling the form on the module's first use."""
        fn = self._fns[index]
        compiled = fn.compiled.get(kind)
        if compiled is None or compiled[0] != self.cost_model:
            compiled = fn.compiled[kind] = _compile(self, fn, index, kind)
        _, factory, consts = compiled
        names = factory.__code__.co_varnames[1:factory.__code__.co_argcount]
        return factory(consts, *[self._R[name] for name in names])

    def _stub(self, index: int, kind: str):
        """The table entry a function has until its first call."""
        def enter(*args):
            f = self._F[index] = self._instance(index, kind)
            return f(*args)
        return enter

    def _handoff(self, index: int, resume: int, ic: int, frame: dict):
        """Continue a fast frame whose next segment would cross the step
        budget in the counted form of its function, from the segment's
        start: ``frame`` is the fast frame's ``locals()`` (registers,
        ``cs``, ``cost``, ``ac``, ``so``)."""
        f = self._CF[index]
        if f is None:
            f = self._CF[index] = self._instance(index, "counted")
        code = f.__code__
        args = {name: frame[name]
                for name in code.co_varnames[:code.co_argcount]
                if name in frame}
        args["b"] = resume
        args["ic"] = ic
        return f(**args)

    def _call_indirect(self, addr, args, cs, pin, loc):
        """``call.ind``: ``vm.instructions`` and ``vm.cost`` are exact on
        entry and on exit, including on a trap."""
        target = self._addr_targets.get(addr)
        if target is None:
            raise TrapError(f"call through bad function pointer {addr:#x}")
        self.cost += self.cost_model.call
        is_builtin, payload = target
        if is_builtin:
            _, impl, base_cost = payload
            self._alloc_loc = loc
            self.memory.clock = self.instructions
            result = (self._pinned_builtin(impl, args) if pin
                      else impl(self, args))
            self.cost += base_cost
            return result
        if pin and self.hooks.wants_pin():
            self.cost += self.hooks.on_pin_attach()
        return self._F[payload](cs, *args[:self._fns[payload].n_args])

    def _tick(self, ic: int, cost: int, fi: int, pc: int, op: int) -> int:
        """The counted form's first count of an instruction: the budget
        check (with the counters left exact on a trip) and the trace."""
        ic += 1
        if ic > self.max_instructions:
            self.instructions = ic
            self.cost = cost
            raise BudgetExceeded("instruction budget exceeded")
        if self._trace is not None:
            self._trace(fi, pc, op, ic, cost)
        return ic

    # A load or store site tests the object it resolved last, through the
    # lowest and highest address an access of its size may use in it; any
    # other access asks ``Memory._resolve``, which raises every fault.  A
    # site's object belongs to one run: a later run places its globals at
    # the same addresses.

    def _hook_call(self, ic, cost, hook, *args):
        """A hook called from compiled code, with the exact counters."""
        self.instructions = ic
        self.cost = cost
        return hook(*args)

    def _sites(self, specs: tuple) -> list:
        """This run's closures for a function's load, store and probe
        sites, from their ``(kind, operands...)`` specs."""
        makers = {"read": self._site_reader, "write": self._site_writer,
                  "probe": self._site_probe}
        return [makers[kind](*operands) for kind, *operands in specs]

    def _site_reader(self, size: int, ty: int):
        resolve, unpack = self.memory._resolve, _UNPACK[ty]
        lo, hi, obj = _NO_SITE

        def read(addr):
            nonlocal lo, hi, obj
            if not lo <= addr <= hi or obj.freed:
                obj, _ = resolve(addr, size)
                lo = obj.base
                hi = lo + obj.size - size
            return unpack(obj.data, addr - lo)[0]
        return read

    def _site_writer(self, size: int, ty: int):
        resolve, pack = self.memory._resolve, _PACK[ty]
        lo, hi, obj = _NO_SITE
        if ty == TY_FLOAT:
            def write(addr, value):
                nonlocal lo, hi, obj
                if not lo <= addr <= hi or obj.freed:
                    obj, _ = resolve(addr, size)
                    lo = obj.base
                    hi = lo + obj.size - size
                pack(obj.data, addr - lo, value)
            return write
        mask = _STORE_MASK[ty]

        def write_int(addr, value):
            nonlocal lo, hi, obj
            if not lo <= addr <= hi or obj.freed:
                obj, _ = resolve(addr, size)
                lo = obj.base
                hi = lo + obj.size - size
            pack(obj.data, addr - lo, value & mask)
        return write_int

    def _site_probe(self, is_write, size, var, stride, loc):
        """A ``probe.access`` site: the hooks' closure for it."""
        return self.hooks.probe_site(
            AccessKind.WRITE if is_write else AccessKind.READ, size, var,
            stride, loc)

    def _alloca(self, size, var, loc, cs, frame_objects, ic, cost):
        """``alloca``: a stack object for the frame, announced to the
        hooks when it holds a variable.  The counters are exact on entry
        (before the alloca's charge) and on exit, including on a trap."""
        self.instructions = self.memory.clock = ic
        self.cost = cost
        obj = self.memory.allocate(size, "stack", var=var, loc=loc,
                                   callstack=cs)
        frame_objects.append(obj)
        self.cost = cost + self.cost_model.alloca
        if var is not None:
            self.cost += self.hooks.on_alloc(obj)
        return obj.base

    def _pinned_builtin(self, impl, args):
        """A Pin-gated builtin call (§4.4.6): attach the Pintool when the
        hooks want it and trace the builtin's memory traffic."""
        hooks = self.hooks
        if hooks.wants_pin():
            self.cost += hooks.on_pin_attach()
            self._pin_active = True
        try:
            return impl(self, args)
        finally:
            self._pin_active = False

    def _depth_exceeded(self, name: str):
        raise BudgetExceeded(
            f"recursion depth budget exceeded "
            f"({self.max_recursion_depth} frames) calling {name!r}")

    def _unwind(self, error, fix, ic, cost, ac) -> None:
        """Leave exact counters behind a trap in a generated frame: the
        trapping line's entry says how much of its segment's pre-added
        count, cost and accesses had not run yet."""
        entry = fix[error.__traceback__.tb_lineno]
        if entry is None:
            return
        ahead_ic, ahead_cost, ahead_acc = entry
        if ahead_ic is not None:
            self.instructions = ic - ahead_ic
            self.cost = cost - ahead_cost
        self._acc += ac - ahead_acc


def run_module(
    module,
    entry: str = "main",
    args: Tuple = (),
    hooks: Optional[ExecutionHooks] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    max_instructions: int = 2_000_000_000,
    budgets: Optional[ExecutionBudgets] = None,
    bytecode: Optional[BytecodeModule] = None,
    trace_stream=None,
) -> RunResult:
    """Run IR ``module`` once and return the result.

    ``bytecode`` optionally supplies an already-lowered
    :class:`~repro.vm.bytecode.BytecodeModule` (e.g. from the session
    artifact cache); otherwise lowering happens on first use and is
    memoized on the module object.  ``trace_stream`` receives one
    ``trace:`` line per instruction.
    """
    if bytecode is None:
        bytecode = getattr(module, "_bytecode", None)
        if bytecode is None:
            bytecode = lower_module(module)
            module._bytecode = bytecode
    interp = BytecodeInterpreter(bytecode, hooks, cost_model,
                                 max_instructions, budgets,
                                 trace_stream=trace_stream)
    return interp.run(entry, args)
