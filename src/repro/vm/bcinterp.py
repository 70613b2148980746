"""The MiniC virtual machine: a register-bytecode dispatch loop.

Executes a lowered :class:`~repro.vm.bytecode.BytecodeModule` with a flat
while-loop over a per-function *execution stream*: one tuple per
instruction (opcode, operand slots into a per-frame register list,
pre-resolved branch/call targets), indexed by the instruction's pc in
the canonical code.  A deterministic cost model charges every executed
IR instruction, and pluggable :class:`~repro.vm.hooks.ExecutionHooks`
let the CARMOT runtime observe ROI markers, instrumentation probes,
allocations and Pin-traced builtin accesses.  The VM itself is
profiling-agnostic: a run with the default hooks is the *baseline* whose
cost is the denominator of every overhead figure.

Instruction counting follows the IR: one count per IR instruction, so
``BudgetExceeded`` trip points, hook event times and trap messages are
properties of the program, not of the bytecode layout.

Tier-2 structure (see DESIGN.md §12):

- **One tuple per instruction.**  ``fn.xcode`` (built at link time by
  :func:`~repro.vm.bytecode.execution_stream`) holds, at each
  instruction's canonical pc, the tuple of its words, and ``None``
  between.  Each dispatch fetches that tuple once (``ins = code[pc]``)
  and its handler unpacks the operands by name; phi trampolines and
  call argument lists are read from the target's or the call's tuple.
  Because pcs stay canonical, branch targets, return pcs, ``fn.lines``,
  the trace slot and ``{fn.name}+{pc}`` messages are the canonical
  stream's.
- **Superinstructions** arrive pre-fused from codegen (cmp+branch,
  load+binop, binop+store, probe+access).  A fused opcode executes both
  halves with the *same* instruction counting and budget check between
  them as the unfused pair, so trip points and trap-time state never
  move.
- **Quickening.**  The first time a function is entered, ``_quicken``
  replaces the tuples of eligible sites of its execution stream:
  const-operand binops and fused compare-branches become immediate
  forms, single-predecessor phi trampolines become ``OP_PHI_Q1``, and
  indirect calls through constant function pointers pre-resolve their
  target.  The canonical ``array('q')`` stream (``fn.code``) is never
  touched, so serialization, digests, and disassembly cannot observe
  quickened code; :func:`~repro.vm.bytecode.dequicken_module` rebuilds
  the tuples from it.
- **Loads and stores resolve inline.**  The six opcodes that touch
  memory (``load``, ``store``, ``load.bin``, ``bin.store``,
  ``probe.load``, ``probe.store``) first test the object their pc
  resolved last: the access must lie inside it and it must not be
  freed.  Any other access goes through ``Memory._resolve``, which
  raises every fault.  The cache is per interpreter, never on the shared
  stream: every run places its globals at the same addresses, so an
  earlier run's object would pass the bounds test and serve stale bytes.
- **Flattened dispatch.**  The hot opcodes run in a shallow inline
  chain; everything else dispatches through a dense handler table (a
  list indexed by opcode) of per-opcode closures with pre-bound locals,
  called with the pc and the instruction's tuple.  The interpreter
  state is spilled before a table handler runs and the ``cost`` local is
  reloaded after, so the hook-spill contract holds at exactly the
  opcodes that can reach hooks.
- **One trace slot.**  A per-dispatch callback, off (``None``) by
  default and tested once per dispatch, serves both the ``--trace``
  printer and the per-source-line cost attribution of the Figure 6
  profiler (:meth:`BytecodeInterpreter.enable_line_tracing`).

Hot-loop discipline: ``instructions``/``cost`` live in locals and are
spilled to the interpreter attributes

- before every hook invocation (hooks read ``vm.instructions`` as event
  time and may read ``vm.cost``),
- around builtin calls (builtin impls *mutate* ``vm.cost`` through
  ``charge_bytes``/``heap_alloc``, so the local is reloaded after),
- around cold-table handlers (which mutate ``vm.cost`` directly), and
- unconditionally in a ``finally`` so trap/budget exits leave the
  counters at the trapping instruction.

``memory.clock`` is only ever read inside ``allocate``/``free``/
``release_stack_object``, so instead of a per-step store it is refreshed
exactly at the opcodes that can reach those: ``OP_ALLOCA``, ``OP_RET``,
and the builtin-call opcodes.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.builtins_spec import BUILTINS
from repro.errors import BudgetExceeded, TrapError, VMError
from repro.resilience.budgets import MAX_CALL_DEPTH, ExecutionBudgets
from repro.lang import types as ct
from repro.ir.instructions import AccessKind
from repro.vm.builtins import BUILTIN_IMPLS, Xorshift64
from repro.vm.bytecode import (
    BytecodeFunction,
    BytecodeModule,
    OPCODE_NAMES,
    OP_ADD,
    OP_ADD_QI,
    OP_ADDR,
    OP_ALLOCA,
    OP_AND,
    OP_BIN_STORE,
    OP_BR,
    OP_CALL,
    OP_CALL_BUILTIN,
    OP_CALL_IND,
    OP_CALL_IND_QB,
    OP_CALL_IND_QF,
    OP_CALL_MISSING,
    OP_CAST,
    OP_DIV,
    OP_DIV_QI,
    OP_EQ,
    OP_EQ_BR,
    OP_EQ_BR_QI,
    OP_GE,
    OP_GE_BR,
    OP_GE_BR_QI,
    OP_GT,
    OP_GT_BR,
    OP_GT_BR_QI,
    OP_JUMP,
    OP_JUMP_PHI,
    OP_LE,
    OP_LE_BR,
    OP_LE_BR_QI,
    OP_LOAD,
    OP_LOAD_BIN,
    OP_LT,
    OP_LT_BR,
    OP_LT_BR_QI,
    OP_MUL,
    OP_MUL_QI,
    OP_NE,
    OP_NE_BR,
    OP_NE_BR_QI,
    OP_OMP_BARRIER,
    OP_OMP_BEGIN,
    OP_OMP_END,
    OP_OR,
    OP_PHI,
    OP_PHI_Q1,
    OP_PROBE_ACCESS,
    OP_PROBE_CLASSIFY,
    OP_PROBE_ESCAPE,
    OP_PROBE_LOAD,
    OP_PROBE_STORE,
    OP_REM,
    OP_REM_QI,
    OP_RET,
    OP_ROI_BEGIN,
    OP_ROI_END,
    OP_ROI_RESET,
    OP_RSUB_QI,
    OP_SHL,
    OP_SHR,
    OP_STORE,
    OP_SUB,
    OP_SUB_QI,
    OP_XOR,
    QUICKEN_CMP_BR_OFFSET,
    QUICKENED_BINOPS,
    TY_CHAR,
    TY_FLOAT,
    dequicken_module,
    execution_stream,
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

#: Sub-operation evaluators for the fused load+binop / binop+store
#: opcodes (the fusion catalog excludes div/rem, so none of these trap).
_BIN_EVAL = {
    OP_ADD: lambda a, b: a + b,
    OP_SUB: lambda a, b: a - b,
    OP_MUL: lambda a, b: a * b,
    OP_EQ: lambda a, b: 1 if a == b else 0,
    OP_NE: lambda a, b: 1 if a != b else 0,
    OP_LT: lambda a, b: 1 if a < b else 0,
    OP_LE: lambda a, b: 1 if a <= b else 0,
    OP_GT: lambda a, b: 1 if a > b else 0,
    OP_GE: lambda a, b: 1 if a >= b else 0,
    OP_AND: lambda a, b: int(a) & int(b),
    OP_OR: lambda a, b: int(a) | int(b),
    OP_XOR: lambda a, b: int(a) ^ int(b),
    OP_SHL: lambda a, b: int(a) << (int(b) & 63),
    OP_SHR: lambda a, b: int(a) >> (int(b) & 63),
}


def _trace_printer(stream):
    """The ``--trace`` consumer of the trace slot: one line per dispatch."""
    def trace(fn, pc, op, ic, cost):
        print(f"trace: [{ic}] {fn.name}+{pc} {OPCODE_NAMES[op]}", file=stream)
    return trace


class _LineTracer:
    """The line-profile consumer of the trace slot.

    Each dispatch charges the cost accrued since the previous dispatch to
    the previous instruction: an instruction's cost includes the hooks it
    reached and its builtin work.  Costs add up per pc, and :meth:`close`
    folds the pcs into source lines through codegen's ``fn.lines`` table.
    A fused site whose halves sit on two lines is charged as it runs, and
    splits statically: one half always costs a fixed amount (the compare,
    load or binop of the first half; the load or store after a probe).
    """

    def __init__(self, bytecode: BytecodeModule, cost_model: CostModel):
        functions = list(bytecode.functions.values())
        if any(fn.lines is None for fn in functions):
            raise VMError("bytecode has no line table; lower it from IR")
        self.line_costs: Dict[Tuple[str, int], int] = {}
        #: fn -> {pc: cost}; a pc is present once it has executed.
        self._pc_costs = {fn: {} for fn in functions}
        #: fn -> {pc: (first loc, second loc, opcode)} of its fused sites
        #: on two lines.
        self._splits = {
            fn: {pc: (*loc, fn.code[pc]) for pc, loc in fn.lines.items()
                 if type(loc) is tuple}
            for fn in functions
        }
        self._fn = None
        self._acc: Dict[int, int] = {}
        self._split: Dict[int, tuple] = {}
        self._pc = 0
        self._cost = 0
        cm = cost_model
        #: Fused opcode -> fixed cost of its first half.
        self._heads = {op: cm.arith for op in range(OP_LT_BR, OP_NE_BR + 1)}
        self._heads[OP_LOAD_BIN] = cm.load
        self._heads[OP_BIN_STORE] = cm.arith
        #: Fused opcode -> fixed cost of its second half.
        self._tails = {OP_PROBE_LOAD: cm.load, OP_PROBE_STORE: cm.store}

    def __call__(self, fn, pc, op, ic, cost) -> None:
        prev = self._pc
        delta = cost - self._cost
        split = self._split.get(prev)
        if split is None:
            acc = self._acc
            acc[prev] = acc.get(prev, 0) + delta
        else:
            first, second, fused = split
            tail = self._tails.get(fused)
            head = self._heads[fused] if tail is None else delta - tail
            self._charge(first, head)
            self._charge(second, delta - head)
        if fn is not self._fn:
            self._fn = fn
            self._acc = self._pc_costs[fn]
            self._split = self._splits[fn]
        self._pc = pc
        self._cost = cost

    def close(self, cost: int) -> None:
        """Charge the last instruction, which ran up to ``cost``, and
        fold the per-pc costs into :attr:`line_costs`."""
        self(self._fn, 0, 0, 0, cost)
        for fn, acc in self._pc_costs.items():
            for pc, amount in acc.items():
                self._charge(fn.lines[pc], amount)

    def _charge(self, loc, amount: int) -> None:
        if loc is not None:
            key = (loc.filename, loc.line)
            self.line_costs[key] = self.line_costs.get(key, 0) + amount


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
        self.roi_depth = 0
        self._pin_active = False
        self._return_value: object = None
        #: Allocation-site loc for builtins that heap-allocate, baked into
        #: the call opcode (the loc of the instruction after the call).
        self._alloc_loc = None
        #: The trace slot: ``trace(fn, pc, op, ic, cost)`` before every
        #: dispatch, or None.
        self._trace = (None if trace_stream is None
                       else _trace_printer(trace_stream))
        self._line_tracer: Optional[_LineTracer] = None
        self._globals_addr = {}
        setattr(self.hooks, "vm", self)
        self._link()
        self._cold_table = self._build_cold_table()

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
        """Allocate globals for this run and (once per module) resolve
        const pools, call targets, and function addresses.

        Global and function addresses are bump-allocated deterministically
        from the module's own tables, so the resolved frame prototypes and
        address maps are cached on the :class:`BytecodeModule` and shared
        by every interpreter over it.
        """
        bc = self.bytecode
        self._init_globals()
        if bc._linked is None:
            func_addrs = {}
            funcs_by_addr = {}
            names = list(bc.function_order) + list(bc.builtin_order)
            for index, name in enumerate(names):
                addr = FUNC_PTR_BASE + index
                func_addrs[name] = addr
                funcs_by_addr[addr] = name
            linked_builtins = []
            for name in bc.builtin_order:
                spec = BUILTINS.get(name)
                impl = BUILTIN_IMPLS.get(name)
                if spec is None or impl is None:
                    raise VMError(
                        f"bytecode references unknown builtin {name!r}")
                linked_builtins.append((name, impl, spec.base_cost))
            # Indirect-call resolution: address -> name, then builtins
            # shadow module functions of the same name.
            addr_targets = {}
            for addr, name in funcs_by_addr.items():
                if name in BUILTINS:
                    addr_targets[addr] = (
                        True,
                        (name, BUILTIN_IMPLS[name], BUILTINS[name].base_cost),
                    )
                else:
                    addr_targets[addr] = (False, bc.functions[name])
            for name in bc.function_order:
                fn = bc.functions[name]
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
                fn.proto = resolved + [None] * (fn.n_regs - len(resolved))
            bc._linked = (func_addrs, funcs_by_addr, linked_builtins,
                          addr_targets)
        (self._func_addrs, self._funcs_by_addr, self._linked_builtins,
         self._addr_targets) = bc._linked
        self._linked_functions = [bc.functions[name]
                                  for name in bc.function_order]
        # The execution streams (shared by every interpreter over this
        # module) hold each instruction's tuple at its canonical pc;
        # quickening replaces tuples in place and dequicken_module
        # restores them.
        for fn in self._linked_functions:
            if fn.xcode is None:
                fn.xcode = execution_stream(fn)
        # The access cache: per function, the object each load or store
        # pc resolved last, starting at an empty object that matches
        # nothing.  Addresses are only unique within one memory (every
        # run places its globals at the same bases), so the cache belongs
        # to this interpreter and never to the shared streams.
        nothing = MemoryObject(0, 0, 0, "global", bytearray())
        self._access_objs = {fn: [nothing] * len(fn.code)
                             for fn in self._linked_functions}

    # -- quickening --------------------------------------------------------

    def _quicken(self, fn: BytecodeFunction) -> None:
        """Rewrite the function's execution stream in place.

        Walks ``fn.xcode``, which is canonical whenever ``fn.xquick`` is
        false (quickening sets the flag, :func:`dequicken_module` restores
        the canonical tuples and clears it), and replaces the tuple of
        each eligible site with its quickened tuple.  Jump targets are
        tested against ``fn.code`` because an earlier site may already
        have been rewritten.  Every quickened tuple has its canonical
        width, so pcs never move.  Records the patched sites on
        ``fn.quickened`` for dequickening and the ``--quicken-report``
        disassembly.  A line-traced run never quickens.
        """
        if self._line_tracer is not None:
            return
        code = fn.code
        xcode = fn.xcode
        proto = fn.proto
        arg_base = fn.arg_base
        addr_targets = self._addr_targets
        quick_targets = self.bytecode._quick_targets
        sites = {}
        for pc, ins in enumerate(xcode):
            if ins is None:
                continue
            op = ins[0]
            quick = None
            qop = QUICKENED_BINOPS.get(op)
            if qop is not None:
                lhs = ins[2]
                rhs = ins[3]
                rhs_const = (rhs < arg_base
                             and type(proto[rhs]) in (int, float))
                lhs_const = (lhs < arg_base
                             and type(proto[lhs]) in (int, float))
                if op == OP_DIV or op == OP_REM:
                    # Immediate forms skip the zero check, so only a
                    # compile-time-nonzero int divisor is eligible.
                    if (rhs_const and type(proto[rhs]) is int
                            and proto[rhs] != 0):
                        quick = (qop, ins[1], lhs, proto[rhs]) + ins[4:]
                elif rhs_const:
                    quick = (qop, ins[1], lhs, proto[rhs])
                elif lhs_const:
                    if op == OP_SUB:
                        quick = (OP_RSUB_QI, ins[1], proto[lhs], rhs)
                    elif op == OP_ADD or op == OP_MUL:
                        # Commutative: swap the constant into the
                        # immediate slot.
                        quick = (qop, ins[1], rhs, proto[lhs])
            elif OP_LT_BR <= op <= OP_NE_BR:
                rhs = ins[3]
                if rhs < arg_base and type(proto[rhs]) in (int, float):
                    quick = ((op + QUICKEN_CMP_BR_OFFSET,) + ins[1:3]
                             + (proto[rhs],) + ins[4:])
            elif op == OP_PHI:
                if ins[1] == 1:
                    quick = (OP_PHI_Q1,) + ins[1:]
            elif op == OP_JUMP:
                # A jump straight onto a phi trampoline absorbs the
                # trampoline into the jump's dispatch (targets are always
                # intra-function).  The trampoline itself stays — fused
                # cmp+branch edges may still enter it directly.
                if code[ins[1]] == OP_PHI:
                    quick = (OP_JUMP_PHI, ins[1])
            elif op == OP_CALL_IND:
                slot = ins[1]
                if slot < arg_base and type(proto[slot]) is int:
                    target = addr_targets.get(proto[slot])
                    if target is not None:
                        is_builtin, payload = target
                        qop = (OP_CALL_IND_QB if is_builtin
                               else OP_CALL_IND_QF)
                        quick = (qop, len(quick_targets)) + ins[2:]
                        quick_targets.append(payload)
            if quick is not None:
                xcode[pc] = quick
                sites[pc] = quick[0]
        fn.quickened = sites if sites else None
        fn.xquick = True

    # -- public API --------------------------------------------------------

    def enable_line_tracing(self) -> Dict[Tuple[str, int], int]:
        """Attribute cost per source line (the Figure 6 profiler).

        Returns the ``(filename, line) -> cost`` map the run fills in.
        Needs codegen's line table, so the module must come from
        :func:`~repro.vm.codegen.lower_module` (a deserialized artifact
        has none).  The run does not quicken: a quickened jump runs its
        phi trampoline inside its own dispatch, which would move the
        trampoline's cost onto the jump's line.
        """
        if self._trace is not None:
            raise VMError("line tracing and an execution trace share one "
                          "trace slot")
        tracer = _LineTracer(self.bytecode, self.cost_model)
        dequicken_module(self.bytecode)
        self._trace = self._line_tracer = tracer
        return tracer.line_costs

    def run(self, entry: str = "main", args: Tuple = ()) -> RunResult:
        fn = self.bytecode.functions.get(entry)
        if fn is None:
            raise VMError(f"no function named {entry!r}")
        if not fn.xquick:
            self._quicken(fn)
        regs = fn.proto.copy()
        arg_base = fn.arg_base
        for index, value in enumerate(args):
            if index < fn.n_args:
                regs[arg_base + index] = value
        self.call_stack.append(entry)
        self._execute(fn, regs)
        if self._line_tracer is not None:
            self._line_tracer.close(self.cost)
        self.hooks.finish()
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

    # -- flattened dispatch table ------------------------------------------

    def _build_cold_table(self) -> list:
        """Dense opcode -> handler list for the cold opcodes.

        Handlers are closures over the *immutable* per-run bindings
        (tables, cost constants, hooks, memory) and receive the pc, the
        instruction's tuple and the mutable frame state as arguments;
        they return the next pc.  Contract with the dispatch loop: the
        loop spills ``instructions``/``cost`` before the call and reloads
        ``cost`` after, handlers charge via ``vm.cost`` (reading it
        *before* a hook runs, exactly like the inline spill-then-charge
        pattern), and no handler changes the instruction count.
        """
        vm = self
        memory = self.memory
        hooks = self.hooks
        cm = self.cost_model
        bc = self.bytecode
        loc_table = bc.loc_table
        var_table = bc.var_table
        str_table = bc.string_table
        arith = cm.arith
        alloca_cost = cm.alloca
        call_cost = cm.call
        roi_cost = cm.roi_marker

        def op_and(pc, ins, regs, stack_objects, cs):
            _, dst, lhs, rhs = ins
            regs[dst] = int(regs[lhs]) & int(regs[rhs])
            vm.cost += arith
            return pc + 4

        def op_or(pc, ins, regs, stack_objects, cs):
            _, dst, lhs, rhs = ins
            regs[dst] = int(regs[lhs]) | int(regs[rhs])
            vm.cost += arith
            return pc + 4

        def op_xor(pc, ins, regs, stack_objects, cs):
            _, dst, lhs, rhs = ins
            regs[dst] = int(regs[lhs]) ^ int(regs[rhs])
            vm.cost += arith
            return pc + 4

        def op_shl(pc, ins, regs, stack_objects, cs):
            _, dst, lhs, rhs = ins
            regs[dst] = int(regs[lhs]) << (int(regs[rhs]) & 63)
            vm.cost += arith
            return pc + 4

        def op_shr(pc, ins, regs, stack_objects, cs):
            _, dst, lhs, rhs = ins
            regs[dst] = int(regs[lhs]) >> (int(regs[rhs]) & 63)
            vm.cost += arith
            return pc + 4

        def op_alloca(pc, ins, regs, stack_objects, cs):
            _, dst, size, var_index, loc_index = ins
            memory.clock = vm.instructions
            var = var_table[var_index] if var_index >= 0 else None
            obj = memory.allocate(
                size, "stack", var=var,
                loc=loc_table[loc_index] if loc_index >= 0 else None,
                callstack=cs,
            )
            stack_objects.append(obj)
            regs[dst] = obj.base
            c = vm.cost + alloca_cost
            vm.cost = c
            if var is not None:
                vm.cost = c + hooks.on_alloc(obj)
            return pc + 5

        def op_call_missing(pc, ins, regs, stack_objects, cs):
            vm.cost += call_cost
            raise TrapError(
                f"call to undefined function {str_table[ins[1]]!r}"
            )

        def op_roi_begin(pc, ins, regs, stack_objects, cs):
            vm.roi_depth += 1
            c = vm.cost
            vm.cost = c + roi_cost + hooks.on_roi_begin(ins[1])
            return pc + 2

        def op_roi_end(pc, ins, regs, stack_objects, cs):
            vm.roi_depth -= 1
            c = vm.cost
            vm.cost = c + roi_cost + hooks.on_roi_end(ins[1])
            return pc + 2

        def op_roi_reset(pc, ins, regs, stack_objects, cs):
            c = vm.cost
            vm.cost = c + roi_cost + hooks.on_roi_reset(ins[1])
            return pc + 2

        def op_probe_classify(pc, ins, regs, stack_objects, cs):
            (_, states, ptr, size, var_index, count_slot, stride, loc_index,
             roi_id, site_id) = ins
            addr = int(regs[ptr])
            count = 1 if count_slot < 0 else int(regs[count_slot])
            c = vm.cost
            vm.cost = c + hooks.on_probe_classify(
                str_table[states], addr, size,
                var_table[var_index] if var_index >= 0 else None,
                count, stride,
                loc_table[loc_index] if loc_index >= 0 else None,
                roi_id if roi_id >= 0 else None,
                site_id if site_id >= 0 else None,
            )
            return pc + 10

        def op_probe_escape(pc, ins, regs, stack_objects, cs):
            _, val, ptr, loc_index = ins
            value = int(regs[val])
            dest = int(regs[ptr])
            c = vm.cost
            vm.cost = c + hooks.on_probe_escape(
                value, dest,
                loc_table[loc_index] if loc_index >= 0 else None,
            )
            return pc + 4

        def op_omp_begin(pc, ins, regs, stack_objects, cs):
            c = vm.cost
            vm.cost = c + roi_cost + hooks.on_omp_region(
                str_table[ins[1]], ins[2], True)
            return pc + 3

        def op_omp_end(pc, ins, regs, stack_objects, cs):
            c = vm.cost
            vm.cost = c + roi_cost + hooks.on_omp_region(
                str_table[ins[1]], ins[2], False)
            return pc + 3

        def op_omp_barrier(pc, ins, regs, stack_objects, cs):
            c = vm.cost
            vm.cost = c + roi_cost + hooks.on_omp_barrier()
            return pc + 1

        table: list = [None] * (OP_CALL_IND_QB + 1)
        table[OP_AND] = op_and
        table[OP_OR] = op_or
        table[OP_XOR] = op_xor
        table[OP_SHL] = op_shl
        table[OP_SHR] = op_shr
        table[OP_ALLOCA] = op_alloca
        table[OP_CALL_MISSING] = op_call_missing
        table[OP_ROI_BEGIN] = op_roi_begin
        table[OP_ROI_END] = op_roi_end
        table[OP_ROI_RESET] = op_roi_reset
        table[OP_PROBE_CLASSIFY] = op_probe_classify
        table[OP_PROBE_ESCAPE] = op_probe_escape
        table[OP_OMP_BEGIN] = op_omp_begin
        table[OP_OMP_END] = op_omp_end
        table[OP_OMP_BARRIER] = op_omp_barrier
        return table

    # -- main loop ---------------------------------------------------------

    def _execute(
        self,
        fn: BytecodeFunction,
        regs: list,
        # Default-argument idiom: binds every opcode the dispatch
        # chain compares against as a fast local instead of a module
        # global.  Never pass these.
        *,
        OP_ADD=OP_ADD,
        OP_ADDR=OP_ADDR,
        OP_ADD_QI=OP_ADD_QI,
        OP_BIN_STORE=OP_BIN_STORE,
        OP_BR=OP_BR,
        OP_CALL=OP_CALL,
        OP_CALL_BUILTIN=OP_CALL_BUILTIN,
        OP_CALL_IND=OP_CALL_IND,
        OP_CALL_IND_QB=OP_CALL_IND_QB,
        OP_CALL_IND_QF=OP_CALL_IND_QF,
        OP_CAST=OP_CAST,
        OP_DIV=OP_DIV,
        OP_DIV_QI=OP_DIV_QI,
        OP_EQ=OP_EQ,
        OP_EQ_BR=OP_EQ_BR,
        OP_EQ_BR_QI=OP_EQ_BR_QI,
        OP_GE=OP_GE,
        OP_GE_BR=OP_GE_BR,
        OP_GE_BR_QI=OP_GE_BR_QI,
        OP_GT=OP_GT,
        OP_GT_BR=OP_GT_BR,
        OP_GT_BR_QI=OP_GT_BR_QI,
        OP_JUMP=OP_JUMP,
        OP_JUMP_PHI=OP_JUMP_PHI,
        OP_LE=OP_LE,
        OP_LE_BR=OP_LE_BR,
        OP_LE_BR_QI=OP_LE_BR_QI,
        OP_LOAD=OP_LOAD,
        OP_LOAD_BIN=OP_LOAD_BIN,
        OP_LT=OP_LT,
        OP_LT_BR=OP_LT_BR,
        OP_LT_BR_QI=OP_LT_BR_QI,
        OP_MUL=OP_MUL,
        OP_MUL_QI=OP_MUL_QI,
        OP_NE=OP_NE,
        OP_NE_BR=OP_NE_BR,
        OP_NE_BR_QI=OP_NE_BR_QI,
        OP_PHI=OP_PHI,
        OP_PHI_Q1=OP_PHI_Q1,
        OP_PROBE_ACCESS=OP_PROBE_ACCESS,
        OP_PROBE_LOAD=OP_PROBE_LOAD,
        OP_PROBE_STORE=OP_PROBE_STORE,
        OP_REM=OP_REM,
        OP_REM_QI=OP_REM_QI,
        OP_RET=OP_RET,
        OP_RSUB_QI=OP_RSUB_QI,
        OP_STORE=OP_STORE,
        OP_SUB=OP_SUB,
        OP_SUB_QI=OP_SUB_QI,
        TY_CHAR=TY_CHAR,
        TY_FLOAT=TY_FLOAT,
        struct_error=struct.error,
    ) -> None:
        memory = self.memory
        resolve = memory._resolve
        hooks = self.hooks
        cm = self.cost_model
        call_stack = self.call_stack
        # Typed access, indexed by TY_* codes: size, unpack_from,
        # pack_into, the store's convert and its C-style wrap.
        sizes, unpackers, packers, converts, wraps = zip(*SCALAR_CODECS)
        max_instructions = self.max_instructions
        max_depth = self.max_recursion_depth
        bc = self.bytecode
        loc_table = bc.loc_table
        var_table = bc.var_table
        linked_fns = self._linked_functions
        linked_builtins = self._linked_builtins
        addr_targets = self._addr_targets
        quick_targets = bc._quick_targets
        cold_table = self._cold_table
        n_cold = len(cold_table)
        bin_eval = _BIN_EVAL
        trace = self._trace
        arith = cm.arith
        load_cost = cm.load
        store_cost = cm.store
        addr_cost = cm.addr
        branch_cost = cm.branch
        cast_cost = cm.cast
        call_cost = cm.call
        ret_cost = cm.ret
        # Merged constants for the fused fast paths (the trip/trap
        # paths charge the components separately, as the unfused pair
        # would).
        arith_branch = arith + branch_cost
        load_arith = load_cost + arith
        kind_objs = (AccessKind.READ, AccessKind.WRITE)
        access_objs = self._access_objs
        code = fn.xcode
        objs = access_objs[fn]
        pc = fn.entry_pc
        cs = tuple(call_stack)
        frames: List[tuple] = []  # suspended callers
        stack_objects: List[MemoryObject] = []
        ic = self.instructions
        cost = self.cost
        var_accesses = 0
        mem_accesses = 0
        try:
            while True:
                ins = code[pc]
                op = ins[0]
                ic += 1
                if ic > max_instructions:
                    raise BudgetExceeded("instruction budget exceeded")
                if trace is not None:
                    trace(fn, pc, op, ic, cost)
                # Dispatch: hot opcodes (quickened, fused, common binops)
                # sit in a shallow inline chain, each sub-chain ordered
                # hottest first by measured dynamic opcode mixes (DESIGN.md
                # §12); fused opcodes count both
                # component instructions and re-check the budget between
                # the halves so trip points match the unfused pair.
                # Everything past the chain dispatches through the dense
                # cold handler table.  Loads and stores test the object
                # their pc resolved last (``objs[pc]``) before asking
                # ``Memory._resolve``, which raises every fault.
                if op >= OP_ADD:
                    if op == OP_ADD_QI:
                        _, dst, lhs, imm = ins
                        regs[dst] = regs[lhs] + imm
                        cost += arith
                        pc += 4
                    elif op == OP_JUMP_PHI:
                        cost += branch_cost
                        ic += 1
                        if ic > max_instructions:
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        phi = code[ins[1]]
                        k = phi[1]
                        if k == 1:
                            regs[phi[4]] = regs[phi[3]]
                        elif k == 2:
                            v0 = regs[phi[3]]
                            v1 = regs[phi[5]]
                            regs[phi[4]] = v0
                            regs[phi[6]] = v1
                        elif k == 3:
                            v0 = regs[phi[3]]
                            v1 = regs[phi[5]]
                            v2 = regs[phi[7]]
                            regs[phi[4]] = v0
                            regs[phi[6]] = v1
                            regs[phi[8]] = v2
                        else:
                            values = [regs[src] for src in phi[3::2]]
                            for dst, value in zip(phi[4::2], values):
                                regs[dst] = value
                        ic += k - 1
                        cost += arith * k
                        pc = phi[2]
                    elif op == OP_MUL_QI:
                        _, dst, lhs, imm = ins
                        regs[dst] = regs[lhs] * imm
                        cost += arith
                        pc += 4
                    elif op == OP_LT_BR_QI:
                        ic += 1
                        if ic > max_instructions:
                            cost += arith
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        cost += arith_branch
                        _, dst, lhs, imm, on_true, on_false = ins
                        if regs[lhs] < imm:
                            regs[dst] = 1
                            pc = on_true
                        else:
                            regs[dst] = 0
                            pc = on_false
                    elif op == OP_ADD:
                        _, dst, lhs, rhs = ins
                        regs[dst] = regs[lhs] + regs[rhs]
                        cost += arith
                        pc += 4
                    elif op == OP_REM_QI:
                        _, dst, lhs, rhs, _ = ins
                        lhs = regs[lhs]
                        quotient = abs(lhs) // abs(rhs)
                        if (lhs < 0) != (rhs < 0):
                            quotient = -quotient
                        regs[dst] = lhs - quotient * rhs
                        cost += arith
                        pc += 5
                    elif op == OP_PHI_Q1:
                        _, _, succ, src, dst = ins
                        regs[dst] = regs[src]
                        cost += arith
                        pc = succ
                    elif op == OP_SUB:
                        _, dst, lhs, rhs = ins
                        regs[dst] = regs[lhs] - regs[rhs]
                        cost += arith
                        pc += 4
                    elif op == OP_PROBE_LOAD:
                        (_, is_write, probed, size, var_index, count_slot,
                         stride, loc_index, site_id, dst, ptr, ty,
                         is_var) = ins
                        addr = int(regs[probed])
                        count = (1 if count_slot < 0
                                 else int(regs[count_slot]))
                        self.instructions = ic
                        self.cost = cost
                        cost += hooks.on_probe_access(
                            kind_objs[is_write], addr, size,
                            var_table[var_index] if var_index >= 0 else None,
                            count, stride,
                            loc_table[loc_index] if loc_index >= 0 else None,
                            cs, site_id if site_id >= 0 else None,
                        )
                        ic += 1
                        if ic > max_instructions:
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        addr = int(regs[ptr])
                        obj = objs[pc]
                        off = addr - obj.base
                        size = sizes[ty]
                        if off < 0 or off + size > obj.size or obj.freed:
                            obj, off = resolve(addr, size)
                            objs[pc] = obj
                        regs[dst] = unpackers[ty](obj.data, off)[0]
                        if is_var:
                            var_accesses += 1
                        else:
                            mem_accesses += 1
                        cost += load_cost
                        pc += 13
                    elif op == OP_DIV_QI:
                        _, dst, lhs, rhs, _ = ins
                        lhs = regs[lhs]
                        if isinstance(lhs, float):
                            result = lhs / rhs
                        else:
                            result = abs(lhs) // abs(rhs)
                            if (lhs < 0) != (rhs < 0):
                                result = -result
                        regs[dst] = result
                        cost += arith
                        pc += 5
                    elif op == OP_GT_BR_QI:
                        ic += 1
                        if ic > max_instructions:
                            cost += arith
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        cost += arith_branch
                        _, dst, lhs, imm, on_true, on_false = ins
                        if regs[lhs] > imm:
                            regs[dst] = 1
                            pc = on_true
                        else:
                            regs[dst] = 0
                            pc = on_false
                    elif op == OP_LOAD_BIN:
                        _, subop, ldst, ptr, ty, is_var, dst, lhs, rhs = ins
                        addr = int(regs[ptr])
                        obj = objs[pc]
                        off = addr - obj.base
                        size = sizes[ty]
                        if off < 0 or off + size > obj.size or obj.freed:
                            obj, off = resolve(addr, size)
                            objs[pc] = obj
                        regs[ldst] = unpackers[ty](obj.data, off)[0]
                        if is_var:
                            var_accesses += 1
                        else:
                            mem_accesses += 1
                        ic += 1
                        if ic > max_instructions:
                            cost += load_cost
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        regs[dst] = bin_eval[subop](regs[lhs], regs[rhs])
                        cost += load_arith
                        pc += 9
                    elif op == OP_PROBE_STORE:
                        (_, is_write, probed, size, var_index, count_slot,
                         stride, loc_index, site_id, val, ptr, ty,
                         is_var) = ins
                        addr = int(regs[probed])
                        count = (1 if count_slot < 0
                                 else int(regs[count_slot]))
                        self.instructions = ic
                        self.cost = cost
                        cost += hooks.on_probe_access(
                            kind_objs[is_write], addr, size,
                            var_table[var_index] if var_index >= 0 else None,
                            count, stride,
                            loc_table[loc_index] if loc_index >= 0 else None,
                            cs, site_id if site_id >= 0 else None,
                        )
                        ic += 1
                        if ic > max_instructions:
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        addr = int(regs[ptr])
                        obj = objs[pc]
                        off = addr - obj.base
                        size = sizes[ty]
                        if off < 0 or off + size > obj.size or obj.freed:
                            obj, off = resolve(addr, size)
                            objs[pc] = obj
                        value = regs[val]
                        try:
                            packers[ty](obj.data, off, converts[ty](value))
                        except struct_error:
                            packers[ty](obj.data, off, wraps[ty](value))
                        if is_var:
                            var_accesses += 1
                        else:
                            mem_accesses += 1
                        cost += store_cost
                        pc += 13
                    elif op == OP_SUB_QI:
                        _, dst, lhs, imm = ins
                        regs[dst] = regs[lhs] - imm
                        cost += arith
                        pc += 4
                    elif op == OP_NE:
                        _, dst, lhs, rhs = ins
                        regs[dst] = 1 if regs[lhs] != regs[rhs] else 0
                        cost += arith
                        pc += 4
                    elif op == OP_EQ:
                        _, dst, lhs, rhs = ins
                        regs[dst] = 1 if regs[lhs] == regs[rhs] else 0
                        cost += arith
                        pc += 4
                    elif op == OP_MUL:
                        _, dst, lhs, rhs = ins
                        regs[dst] = regs[lhs] * regs[rhs]
                        cost += arith
                        pc += 4
                    elif op == OP_LT_BR:
                        ic += 1
                        if ic > max_instructions:
                            cost += arith
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        cost += arith_branch
                        _, dst, lhs, rhs, on_true, on_false = ins
                        if regs[lhs] < regs[rhs]:
                            regs[dst] = 1
                            pc = on_true
                        else:
                            regs[dst] = 0
                            pc = on_false
                    elif op == OP_DIV:
                        _, dst, lhs, rhs, loc_index = ins
                        lhs = regs[lhs]
                        rhs = regs[rhs]
                        if rhs == 0:
                            loc = (loc_table[loc_index]
                                   if loc_index >= 0 else None)
                            raise TrapError(f"division by zero at {loc}")
                        if isinstance(lhs, float) or isinstance(rhs, float):
                            result = lhs / rhs
                        else:
                            result = abs(lhs) // abs(rhs)
                            if (lhs < 0) != (rhs < 0):
                                result = -result
                        regs[dst] = result
                        cost += arith
                        pc += 5
                    elif op == OP_EQ_BR:
                        ic += 1
                        if ic > max_instructions:
                            cost += arith
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        cost += arith_branch
                        _, dst, lhs, rhs, on_true, on_false = ins
                        if regs[lhs] == regs[rhs]:
                            regs[dst] = 1
                            pc = on_true
                        else:
                            regs[dst] = 0
                            pc = on_false
                    elif op == OP_BIN_STORE:
                        _, subop, dst, lhs, rhs, ptr, ty, is_var = ins
                        regs[dst] = value = bin_eval[subop](
                            regs[lhs], regs[rhs])
                        cost += arith
                        ic += 1
                        if ic > max_instructions:
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        addr = int(regs[ptr])
                        obj = objs[pc]
                        off = addr - obj.base
                        size = sizes[ty]
                        if off < 0 or off + size > obj.size or obj.freed:
                            obj, off = resolve(addr, size)
                            objs[pc] = obj
                        try:
                            packers[ty](obj.data, off, converts[ty](value))
                        except struct_error:
                            packers[ty](obj.data, off, wraps[ty](value))
                        if is_var:
                            var_accesses += 1
                        else:
                            mem_accesses += 1
                        cost += store_cost
                        pc += 8
                    elif op == OP_GT_BR:
                        ic += 1
                        if ic > max_instructions:
                            cost += arith
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        cost += arith_branch
                        _, dst, lhs, rhs, on_true, on_false = ins
                        if regs[lhs] > regs[rhs]:
                            regs[dst] = 1
                            pc = on_true
                        else:
                            regs[dst] = 0
                            pc = on_false
                    elif op == OP_RSUB_QI:
                        _, dst, imm, rhs = ins
                        regs[dst] = imm - regs[rhs]
                        cost += arith
                        pc += 4
                    elif op == OP_GE_BR_QI:
                        ic += 1
                        if ic > max_instructions:
                            cost += arith
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        cost += arith_branch
                        _, dst, lhs, imm, on_true, on_false = ins
                        if regs[lhs] >= imm:
                            regs[dst] = 1
                            pc = on_true
                        else:
                            regs[dst] = 0
                            pc = on_false
                    elif op == OP_EQ_BR_QI:
                        ic += 1
                        if ic > max_instructions:
                            cost += arith
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        cost += arith_branch
                        _, dst, lhs, imm, on_true, on_false = ins
                        if regs[lhs] == imm:
                            regs[dst] = 1
                            pc = on_true
                        else:
                            regs[dst] = 0
                            pc = on_false
                    elif op == OP_LT:
                        _, dst, lhs, rhs = ins
                        regs[dst] = 1 if regs[lhs] < regs[rhs] else 0
                        cost += arith
                        pc += 4
                    elif op == OP_LE_BR:
                        ic += 1
                        if ic > max_instructions:
                            cost += arith
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        cost += arith_branch
                        _, dst, lhs, rhs, on_true, on_false = ins
                        if regs[lhs] <= regs[rhs]:
                            regs[dst] = 1
                            pc = on_true
                        else:
                            regs[dst] = 0
                            pc = on_false
                    elif op == OP_GE_BR:
                        ic += 1
                        if ic > max_instructions:
                            cost += arith
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        cost += arith_branch
                        _, dst, lhs, rhs, on_true, on_false = ins
                        if regs[lhs] >= regs[rhs]:
                            regs[dst] = 1
                            pc = on_true
                        else:
                            regs[dst] = 0
                            pc = on_false
                    elif op == OP_NE_BR:
                        ic += 1
                        if ic > max_instructions:
                            cost += arith
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        cost += arith_branch
                        _, dst, lhs, rhs, on_true, on_false = ins
                        if regs[lhs] != regs[rhs]:
                            regs[dst] = 1
                            pc = on_true
                        else:
                            regs[dst] = 0
                            pc = on_false
                    elif op == OP_LE_BR_QI:
                        ic += 1
                        if ic > max_instructions:
                            cost += arith
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        cost += arith_branch
                        _, dst, lhs, imm, on_true, on_false = ins
                        if regs[lhs] <= imm:
                            regs[dst] = 1
                            pc = on_true
                        else:
                            regs[dst] = 0
                            pc = on_false
                    elif op == OP_NE_BR_QI:
                        ic += 1
                        if ic > max_instructions:
                            cost += arith
                            raise BudgetExceeded(
                                "instruction budget exceeded")
                        cost += arith_branch
                        _, dst, lhs, imm, on_true, on_false = ins
                        if regs[lhs] != imm:
                            regs[dst] = 1
                            pc = on_true
                        else:
                            regs[dst] = 0
                            pc = on_false
                    elif op == OP_LE:
                        _, dst, lhs, rhs = ins
                        regs[dst] = 1 if regs[lhs] <= regs[rhs] else 0
                        cost += arith
                        pc += 4
                    elif op == OP_GT:
                        _, dst, lhs, rhs = ins
                        regs[dst] = 1 if regs[lhs] > regs[rhs] else 0
                        cost += arith
                        pc += 4
                    elif op == OP_GE:
                        _, dst, lhs, rhs = ins
                        regs[dst] = 1 if regs[lhs] >= regs[rhs] else 0
                        cost += arith
                        pc += 4
                    elif op == OP_REM:
                        _, dst, lhs, rhs, loc_index = ins
                        lhs = regs[lhs]
                        rhs = regs[rhs]
                        if rhs == 0:
                            loc = (loc_table[loc_index]
                                   if loc_index >= 0 else None)
                            raise TrapError(f"modulo by zero at {loc}")
                        quotient = abs(lhs) // abs(rhs)
                        if (lhs < 0) != (rhs < 0):
                            quotient = -quotient
                        regs[dst] = lhs - quotient * rhs
                        cost += arith
                        pc += 5
                    elif op == OP_CALL_IND_QF:
                        callee = quick_targets[ins[1]]
                        args = [regs[slot] for slot in ins[6:]]
                        cost += call_cost
                        if ins[3] and hooks.wants_pin():
                            self.instructions = ic
                            self.cost = cost
                            cost += hooks.on_pin_attach()
                        if len(frames) + 1 >= max_depth:
                            raise BudgetExceeded(
                                f"recursion depth budget exceeded "
                                f"({max_depth} frames) calling "
                                f"{callee.name!r}"
                            )
                        frames.append((fn, regs, pc + len(ins), ins[2],
                                       stack_objects, cs, objs))
                        fn = callee
                        if not fn.xquick:
                            self._quicken(fn)
                        code = fn.xcode
                        objs = access_objs[fn]
                        regs = fn.proto.copy()
                        arg_base = fn.arg_base
                        del args[fn.n_args:]
                        regs[arg_base:arg_base + len(args)] = args
                        stack_objects = []
                        pc = fn.entry_pc
                        call_stack.append(fn.name)
                        cs = cs + (fn.name,)
                        self.instructions = ic
                        self.cost = cost
                        cost += hooks.on_call_enter(fn.name, fn.instrumented)
                    elif op == OP_CALL_IND_QB:
                        name, impl, base_cost = quick_targets[ins[1]]
                        args = [regs[slot] for slot in ins[6:]]
                        cost += call_cost
                        loc_index = ins[4]
                        self._alloc_loc = (loc_table[loc_index]
                                           if loc_index >= 0 else None)
                        memory.clock = ic
                        self.instructions = ic
                        if ins[3] and hooks.wants_pin():
                            self.cost = cost
                            cost += hooks.on_pin_attach()
                            self._pin_active = True
                        self.cost = cost
                        try:
                            result = impl(self, args)
                        finally:
                            self._pin_active = False
                            cost = self.cost
                        cost += base_cost
                        dst = ins[2]
                        if dst >= 0:
                            regs[dst] = result
                        pc += len(ins)
                    else:
                        handler = (cold_table[op]
                                   if 0 <= op < n_cold else None)
                        if handler is None:
                            raise VMError(
                                f"unknown opcode {op} at {fn.name}+{pc}")
                        self.instructions = ic
                        self.cost = cost
                        try:
                            pc = handler(pc, ins, regs, stack_objects, cs)
                        finally:
                            cost = self.cost
                elif op <= OP_PHI:
                    if op == OP_ADDR:
                        _, dst, base, index, scale, offset = ins
                        regs[dst] = (int(regs[base])
                                     + int(regs[index]) * scale + offset)
                        cost += addr_cost
                        pc += 6
                    elif op == OP_JUMP:
                        pc = ins[1]
                        cost += branch_cost
                    elif op == OP_BR:
                        _, cond, on_true, on_false = ins
                        pc = on_true if regs[cond] != 0 else on_false
                        cost += branch_cost
                    elif op == OP_STORE:
                        _, val, ptr, ty, is_var = ins
                        addr = int(regs[ptr])
                        obj = objs[pc]
                        off = addr - obj.base
                        size = sizes[ty]
                        if off < 0 or off + size > obj.size or obj.freed:
                            obj, off = resolve(addr, size)
                            objs[pc] = obj
                        value = regs[val]
                        try:
                            packers[ty](obj.data, off, converts[ty](value))
                        except struct_error:
                            packers[ty](obj.data, off, wraps[ty](value))
                        if is_var:
                            var_accesses += 1
                        else:
                            mem_accesses += 1
                        cost += store_cost
                        pc += 5
                    elif op == OP_LOAD:
                        _, dst, ptr, ty, is_var = ins
                        addr = int(regs[ptr])
                        obj = objs[pc]
                        off = addr - obj.base
                        size = sizes[ty]
                        if off < 0 or off + size > obj.size or obj.freed:
                            obj, off = resolve(addr, size)
                            objs[pc] = obj
                        regs[dst] = unpackers[ty](obj.data, off)[0]
                        if is_var:
                            var_accesses += 1
                        else:
                            mem_accesses += 1
                        cost += load_cost
                        pc += 5
                    elif op == OP_PHI:
                        # Per-edge trampoline: read every incoming against
                        # the predecessor's values, then write all results
                        # (a block's phis assign atomically), then enter
                        # the successor body.
                        k = ins[1]
                        if k == 1:
                            regs[ins[4]] = regs[ins[3]]
                        elif k == 2:
                            v0 = regs[ins[3]]
                            v1 = regs[ins[5]]
                            regs[ins[4]] = v0
                            regs[ins[6]] = v1
                        elif k == 3:
                            v0 = regs[ins[3]]
                            v1 = regs[ins[5]]
                            v2 = regs[ins[7]]
                            regs[ins[4]] = v0
                            regs[ins[6]] = v1
                            regs[ins[8]] = v2
                        else:
                            values = [regs[src] for src in ins[3::2]]
                            for dst, value in zip(ins[4::2], values):
                                regs[dst] = value
                        ic += k - 1
                        cost += arith * k
                        pc = ins[2]
                    else:
                        raise VMError(f"unknown opcode {op} at {fn.name}+{pc}")
                elif op == OP_CALL_BUILTIN:
                    name, impl, base_cost = linked_builtins[ins[1]]
                    args = [regs[slot] for slot in ins[6:]]
                    cost += call_cost
                    loc_index = ins[4]
                    self._alloc_loc = (loc_table[loc_index]
                                       if loc_index >= 0 else None)
                    memory.clock = ic
                    self.instructions = ic
                    if ins[3] and hooks.wants_pin():
                        self.cost = cost
                        cost += hooks.on_pin_attach()
                        self._pin_active = True
                    self.cost = cost
                    try:
                        result = impl(self, args)
                    finally:
                        self._pin_active = False
                        cost = self.cost
                    cost += base_cost
                    dst = ins[2]
                    if dst >= 0:
                        regs[dst] = result
                    pc += len(ins)
                elif op == OP_RET:
                    memory.clock = ic
                    value_slot = ins[1]
                    value = regs[value_slot] if value_slot >= 0 else None
                    for obj in stack_objects:
                        memory.release_stack_object(obj)
                    call_stack.pop()
                    cost += ret_cost
                    if frames:
                        self.instructions = ic
                        self.cost = cost
                        cost += hooks.on_call_exit(fn.name)
                        (fn, regs, pc, dst, stack_objects, cs,
                         objs) = frames.pop()
                        code = fn.xcode
                        if dst >= 0:
                            regs[dst] = value
                    else:
                        self._return_value = value
                        return
                elif op == OP_CALL:
                    callee = linked_fns[ins[1]]
                    args = [regs[slot] for slot in ins[5:]]
                    cost += call_cost
                    if ins[3] and hooks.wants_pin():
                        # A conservatively-gated call toggles the Pintool
                        # even though the target turns out to be
                        # instrumented code (§4.4.6).
                        self.instructions = ic
                        self.cost = cost
                        cost += hooks.on_pin_attach()
                    if len(frames) + 1 >= max_depth:
                        raise BudgetExceeded(
                            f"recursion depth budget exceeded "
                            f"({max_depth} frames) calling {callee.name!r}"
                        )
                    frames.append((fn, regs, pc + len(ins), ins[2],
                                   stack_objects, cs, objs))
                    fn = callee
                    if not fn.xquick:
                        self._quicken(fn)
                    code = fn.xcode
                    objs = access_objs[fn]
                    regs = fn.proto.copy()
                    arg_base = fn.arg_base
                    del args[fn.n_args:]
                    regs[arg_base:arg_base + len(args)] = args
                    stack_objects = []
                    pc = fn.entry_pc
                    call_stack.append(fn.name)
                    cs = cs + (fn.name,)
                    self.instructions = ic
                    self.cost = cost
                    cost += hooks.on_call_enter(fn.name, fn.instrumented)
                elif op == OP_CAST:
                    _, dst, src, to = ins
                    value = regs[src]
                    if to == TY_FLOAT:
                        try:
                            regs[dst] = float(value)
                        except OverflowError:
                            # Registers hold unbounded ints; the value is
                            # left out because its decimal form can pass
                            # Python's int-to-str digit limit.
                            raise TrapError("integer too large to convert "
                                            "to a float") from None
                    elif to == TY_CHAR:
                        regs[dst] = to_int(value) & 0xFF
                    else:
                        regs[dst] = to_int(value)
                    cost += cast_cost
                    pc += 4
                elif op == OP_CALL_IND:
                    addr = int(regs[ins[1]])
                    target = addr_targets.get(addr)
                    if target is None:
                        raise TrapError(
                            f"call through bad function pointer {addr:#x}")
                    args = [regs[slot] for slot in ins[6:]]
                    cost += call_cost
                    is_builtin, payload = target
                    if is_builtin:
                        name, impl, base_cost = payload
                        loc_index = ins[4]
                        self._alloc_loc = (loc_table[loc_index]
                                           if loc_index >= 0 else None)
                        memory.clock = ic
                        self.instructions = ic
                        if ins[3] and hooks.wants_pin():
                            self.cost = cost
                            cost += hooks.on_pin_attach()
                            self._pin_active = True
                        self.cost = cost
                        try:
                            result = impl(self, args)
                        finally:
                            self._pin_active = False
                            cost = self.cost
                        cost += base_cost
                        dst = ins[2]
                        if dst >= 0:
                            regs[dst] = result
                        pc += len(ins)
                    else:
                        callee = payload
                        if ins[3] and hooks.wants_pin():
                            self.instructions = ic
                            self.cost = cost
                            cost += hooks.on_pin_attach()
                        if len(frames) + 1 >= max_depth:
                            raise BudgetExceeded(
                                f"recursion depth budget exceeded "
                                f"({max_depth} frames) calling "
                                f"{callee.name!r}"
                            )
                        frames.append((fn, regs, pc + len(ins), ins[2],
                                       stack_objects, cs, objs))
                        fn = callee
                        if not fn.xquick:
                            self._quicken(fn)
                        code = fn.xcode
                        objs = access_objs[fn]
                        regs = fn.proto.copy()
                        arg_base = fn.arg_base
                        del args[fn.n_args:]
                        regs[arg_base:arg_base + len(args)] = args
                        stack_objects = []
                        pc = fn.entry_pc
                        call_stack.append(fn.name)
                        cs = cs + (fn.name,)
                        self.instructions = ic
                        self.cost = cost
                        cost += hooks.on_call_enter(fn.name, fn.instrumented)
                elif op == OP_PROBE_ACCESS:
                    (_, is_write, ptr, size, var_index, count_slot, stride,
                     loc_index, site_id) = ins
                    addr = int(regs[ptr])
                    count = 1 if count_slot < 0 else int(regs[count_slot])
                    self.instructions = ic
                    self.cost = cost
                    cost += hooks.on_probe_access(
                        kind_objs[is_write], addr, size,
                        var_table[var_index] if var_index >= 0 else None,
                        count, stride,
                        loc_table[loc_index] if loc_index >= 0 else None,
                        cs, site_id if site_id >= 0 else None,
                    )
                    pc += 9
                else:
                    handler = cold_table[op] if 0 <= op < n_cold else None
                    if handler is None:
                        raise VMError(
                            f"unknown opcode {op} at {fn.name}+{pc}")
                    self.instructions = ic
                    self.cost = cost
                    try:
                        pc = handler(pc, ins, regs, stack_objects, cs)
                    finally:
                        cost = self.cost
        finally:
            self.instructions = ic
            self.cost = cost
            self.access_counts["var"] += var_accesses
            self.access_counts["mem"] += mem_accesses


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
    ``trace:`` line per dispatch.
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
