"""The differential oracle for the bytecode VM: an IR tree-walk.

:class:`Interpreter` executes IR modules directly, one
:class:`~repro.ir.instructions.Instr` at a time, with an explicit frame
stack and the same cost model and :class:`ExecutionHooks` call sequence
as :class:`repro.vm.bcinterp.BytecodeInterpreter`.  It shares no code
with the bytecode path (no codegen, no fusion, no generated Python), so a run
on it and a run on the bytecode VM must agree on results, costs,
instruction counts, hook events, budget trip points and trap messages.
Its :meth:`Interpreter.enable_line_tracing` is the reference for the
bytecode VM's per-source-line costs, and :func:`profile_treewalk` for
the Figure 6 profile built from them.

:func:`treewalk_engine` swaps the oracle in for the VM wherever
:mod:`repro.compiler.driver` runs a module (``CompiledProgram.run``, and
through it ``Session`` and ``ServiceCore``).  Run with the artifact
cache off, or a cached profile answers in its place.  The suites select
it through the ``treewalk`` engine parameter (:data:`ENGINES`).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Tuple

import repro.compiler.driver as driver
from repro.errors import BudgetExceeded, TrapError, VMError
from repro.resilience.budgets import MAX_CALL_DEPTH, ExecutionBudgets
from repro.lang import types as ct
from repro.ir.instructions import (
    AccessKind,
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
    Phi,
    ProbeAccess,
    ProbeClassify,
    ProbeEscape,
    Ret,
    RoiBegin,
    RoiEnd,
    RoiReset,
    Store,
)
from repro.ir.module import Function, Module
from repro.ir.values import Const, FunctionRef, GlobalRef, Temp, Value
from repro.parallel.profile import ExecutionProfile, ProfilingHooks
from repro.builtins_spec import BUILTINS
from repro.vm.builtins import BUILTIN_IMPLS, Xorshift64
from repro.vm.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.vm.hooks import ExecutionHooks
from repro.vm.memory import FUNC_PTR_BASE, Memory, MemoryObject, to_int
from repro.vm.result import RunResult

#: Engine parameter values: ``treewalk`` = this oracle, ``bytecode`` = the VM.
ENGINES = ("treewalk", "bytecode")


class _Frame:
    __slots__ = ("function", "block", "index", "temps", "stack_objects",
                 "result_temp", "prev_block")

    def __init__(self, function: Function, result_temp: Optional[Temp]) -> None:
        self.function = function
        self.block = function.entry
        self.index = 0
        self.temps: Dict[str, object] = {}
        self.stack_objects: List[MemoryObject] = []
        self.result_temp = result_temp
        self.prev_block = None


class Interpreter:
    """Executes one module.  Create a fresh interpreter per run."""

    def __init__(
        self,
        module: Module,
        hooks: Optional[ExecutionHooks] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        max_instructions: int = 2_000_000_000,
        budgets: Optional[ExecutionBudgets] = None,
        trace_stream=None,
    ) -> None:
        self.module = module
        self.hooks = hooks or ExecutionHooks()
        self.cost_model = cost_model
        self.max_instructions = max_instructions
        #: Execution guards: a misbehaving program trips a
        #: :class:`BudgetExceeded` (a TrapError the profiler can catch)
        #: instead of exhausting host memory or Python recursion.
        self.budgets = budgets
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
        self._frames: List[_Frame] = []
        self._globals_addr: Dict[str, int] = {}
        self._func_addrs: Dict[str, int] = {}
        self._funcs_by_addr: Dict[int, str] = {}
        self._return_value: object = None
        #: Optional per-instruction execution trace (``--trace``).
        self.trace_stream = trace_stream
        self._trace_lines = False
        self.line_costs: Dict[Tuple[str, int], int] = {}
        setattr(self.hooks, "vm", self)
        self._init_globals()
        self._init_function_table()

    # -- setup -------------------------------------------------------------

    def _init_globals(self) -> None:
        for gvar in self.module.globals.values():
            obj = self.memory.allocate(
                gvar.ty.size(), "global", var=gvar.var, callstack=("<static>",)
            )
            self._globals_addr[gvar.name] = obj.base
            if gvar.init is None:
                continue
            if isinstance(gvar.init, str):
                payload = gvar.init.encode("utf-8") + b"\0"
                self.memory.write_bytes(obj.base, payload)
            elif isinstance(gvar.ty, ct.FloatType):
                self.memory.write_scalar(obj.base, float(gvar.init), ct.FLOAT)
            else:
                self.memory.write_scalar(obj.base, int(gvar.init), ct.INT)

    def _init_function_table(self) -> None:
        names = list(self.module.functions) + list(BUILTINS)
        for index, name in enumerate(names):
            addr = FUNC_PTR_BASE + index
            self._func_addrs[name] = addr
            self._funcs_by_addr[addr] = name

    # -- public API ----------------------------------------------------------

    def run(self, entry: str = "main", args: Tuple = ()) -> RunResult:
        if entry not in self.module.functions:
            raise VMError(f"no function named {entry!r}")
        function = self.module.functions[entry]
        frame = _Frame(function, None)
        for index, value in enumerate(args):
            frame.temps[f"arg{index}"] = value
        self._frames.append(frame)
        self.call_stack.append(entry)
        self._execute()
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

    # -- helpers used by builtins ------------------------------------------------

    def heap_alloc(self, size: int) -> MemoryObject:
        obj = self.memory.allocate(
            size, "heap", callstack=tuple(self.call_stack),
            loc=self._current_loc(),
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

    def _current_loc(self):
        frame = self._frames[-1] if self._frames else None
        if frame and frame.index < len(frame.block.instrs):
            return frame.block.instrs[frame.index].loc
        return None

    # -- main loop ------------------------------------------------------------------

    def enable_line_tracing(self) -> None:
        """Attribute cost per source line (used by the Figure 6 profiler)."""
        self._trace_lines = True

    def _execute(self) -> None:
        cm = self.cost_model
        trace = self._trace_lines
        trace_stream = self.trace_stream
        line_costs = self.line_costs
        while self._frames:
            frame = self._frames[-1]
            instr = frame.block.instrs[frame.index]
            frame.index += 1
            self.instructions += 1
            self.memory.clock = self.instructions
            if self.instructions > self.max_instructions:
                raise BudgetExceeded("instruction budget exceeded")
            if trace_stream is not None:
                print(
                    f"trace: [{self.instructions}] "
                    f"{frame.function.name}:{frame.block.label} {instr}",
                    file=trace_stream,
                )
            cost_before = self.cost if trace else 0
            kind = type(instr)
            if kind is Load:
                self._exec_load(frame, instr, cm)
            elif kind is Store:
                self._exec_store(frame, instr, cm)
            elif kind is BinOp:
                self._exec_binop(frame, instr, cm)
            elif kind is AddrOffset:
                base = self._value(frame, instr.base)
                index = self._value(frame, instr.index)
                frame.temps[instr.result.name] = (
                    int(base) + int(index) * instr.scale + instr.offset
                )
                self.cost += cm.addr
            elif kind is Branch:
                cond = self._value(frame, instr.cond)
                target = instr.if_true if cond != 0 else instr.if_false
                frame.prev_block = frame.block
                frame.block = target
                frame.index = 0
                self.cost += cm.branch
            elif kind is Jump:
                frame.prev_block = frame.block
                frame.block = instr.target
                frame.index = 0
                self.cost += cm.branch
            elif kind is Phi:
                # All phis at a block head read their inputs atomically
                # against the predecessor's values.
                block = frame.block
                run_end = frame.index
                while (run_end < len(block.instrs)
                       and type(block.instrs[run_end]) is Phi):
                    run_end += 1
                phis = block.instrs[frame.index - 1:run_end]
                values = [
                    self._value(frame, p.incomings[frame.prev_block])
                    for p in phis
                ]
                for phi, value in zip(phis, values):
                    frame.temps[phi.result.name] = value
                frame.index = run_end
                self.instructions += len(phis) - 1
                self.cost += cm.arith * len(phis)
            elif kind is Call:
                self._exec_call(frame, instr, cm)
            elif kind is Ret:
                self._exec_ret(frame, instr, cm)
            elif kind is Alloca:
                self._exec_alloca(frame, instr, cm)
            elif kind is Cast:
                self._exec_cast(frame, instr, cm)
            elif kind is RoiBegin:
                self.roi_depth += 1
                self.cost += cm.roi_marker + self.hooks.on_roi_begin(instr.roi_id)
            elif kind is RoiEnd:
                self.roi_depth -= 1
                self.cost += cm.roi_marker + self.hooks.on_roi_end(instr.roi_id)
            elif kind is RoiReset:
                self.cost += cm.roi_marker + self.hooks.on_roi_reset(
                    instr.roi_id)
            elif kind is ProbeAccess:
                addr = int(self._value(frame, instr.ptr))
                count = 1 if instr.count is None else int(
                    self._value(frame, instr.count)
                )
                self.cost += self.hooks.on_probe_access(
                    instr.kind, addr, instr.size, instr.var, count,
                    instr.stride, instr.loc, tuple(self.call_stack),
                )
            elif kind is ProbeClassify:
                addr = int(self._value(frame, instr.ptr))
                count = 1 if instr.count is None else int(
                    self._value(frame, instr.count)
                )
                self.cost += self.hooks.on_probe_classify(
                    instr.states, addr, instr.size, instr.var, count,
                    instr.stride, instr.loc, instr.roi_id,
                )
            elif kind is ProbeEscape:
                value = int(self._value(frame, instr.value))
                dest = int(self._value(frame, instr.ptr))
                self.cost += self.hooks.on_probe_escape(value, dest, instr.loc)
            elif kind is OmpRegionBegin:
                self.cost += cm.roi_marker + self.hooks.on_omp_region(
                    instr.kind, instr.region_id, True)
            elif kind is OmpRegionEnd:
                self.cost += cm.roi_marker + self.hooks.on_omp_region(
                    instr.kind, instr.region_id, False)
            elif kind is OmpBarrier:
                self.cost += cm.roi_marker + self.hooks.on_omp_barrier()
            else:
                raise VMError(f"unknown instruction {instr!r}")
            if trace and instr.loc is not None:
                key = (instr.loc.filename, instr.loc.line)
                line_costs[key] = line_costs.get(key, 0) + (
                    self.cost - cost_before
                )

    # -- operand evaluation --------------------------------------------------

    def _value(self, frame: _Frame, value: Value):
        kind = type(value)
        if kind is Temp:
            return frame.temps[value.name]
        if kind is Const:
            return value.value
        if kind is GlobalRef:
            return self._globals_addr[value.name]
        if kind is FunctionRef:
            return self._func_addrs[value.name]
        raise VMError(f"cannot evaluate {value!r}")

    # -- instruction execution ---------------------------------------------------

    def _exec_load(self, frame: _Frame, instr: Load, cm: CostModel) -> None:
        addr = int(self._value(frame, instr.ptr))
        frame.temps[instr.result.name] = self.memory.read_scalar(
            addr, instr.result.ty
        )
        self.access_counts["var" if instr.var is not None else "mem"] += 1
        self.cost += cm.load

    def _exec_store(self, frame: _Frame, instr: Store, cm: CostModel) -> None:
        addr = int(self._value(frame, instr.ptr))
        value = self._value(frame, instr.value)
        ty = instr.ptr.ty.pointee if isinstance(instr.ptr.ty, ct.PointerType) \
            else instr.value.ty
        self.memory.write_scalar(addr, value, ty)
        self.access_counts["var" if instr.var is not None else "mem"] += 1
        self.cost += cm.store

    def _exec_binop(self, frame: _Frame, instr: BinOp, cm: CostModel) -> None:
        lhs = self._value(frame, instr.lhs)
        rhs = self._value(frame, instr.rhs)
        op = instr.op
        if op == "add":
            result = lhs + rhs
        elif op == "sub":
            result = lhs - rhs
        elif op == "mul":
            result = lhs * rhs
        elif op == "div":
            if rhs == 0:
                raise TrapError(f"division by zero at {instr.loc}")
            if isinstance(lhs, float) or isinstance(rhs, float):
                result = lhs / rhs
            else:
                result = abs(lhs) // abs(rhs)
                if (lhs < 0) != (rhs < 0):
                    result = -result
        elif op == "rem":
            if rhs == 0:
                raise TrapError(f"modulo by zero at {instr.loc}")
            quotient = abs(lhs) // abs(rhs)
            if (lhs < 0) != (rhs < 0):
                quotient = -quotient
            result = lhs - quotient * rhs
        elif op == "eq":
            result = 1 if lhs == rhs else 0
        elif op == "ne":
            result = 1 if lhs != rhs else 0
        elif op == "lt":
            result = 1 if lhs < rhs else 0
        elif op == "le":
            result = 1 if lhs <= rhs else 0
        elif op == "gt":
            result = 1 if lhs > rhs else 0
        elif op == "ge":
            result = 1 if lhs >= rhs else 0
        elif op == "and":
            result = int(lhs) & int(rhs)
        elif op == "or":
            result = int(lhs) | int(rhs)
        elif op == "xor":
            result = int(lhs) ^ int(rhs)
        elif op == "shl":
            result = int(lhs) << (int(rhs) & 63)
        elif op == "shr":
            result = int(lhs) >> (int(rhs) & 63)
        else:
            raise VMError(f"unknown binop {op!r}")
        frame.temps[instr.result.name] = result
        self.cost += cm.arith

    def _exec_cast(self, frame: _Frame, instr: Cast, cm: CostModel) -> None:
        value = self._value(frame, instr.value)
        to = instr.result.ty
        if isinstance(to, ct.FloatType):
            try:
                result: object = float(value)
            except OverflowError:
                raise TrapError(
                    "integer too large to convert to a float") from None
        elif isinstance(to, ct.CharType):
            result = to_int(value) & 0xFF
        else:
            result = to_int(value)
        frame.temps[instr.result.name] = result
        self.cost += cm.cast

    def _exec_alloca(self, frame: _Frame, instr: Alloca, cm: CostModel) -> None:
        obj = self.memory.allocate(
            instr.allocated_type.size(),
            "stack",
            var=instr.var,
            loc=instr.loc,
            callstack=tuple(self.call_stack),
        )
        frame.stack_objects.append(obj)
        frame.temps[instr.result.name] = obj.base
        self.cost += cm.alloca
        if instr.var is not None:
            self.cost += self.hooks.on_alloc(obj)

    def _exec_call(self, frame: _Frame, instr: Call, cm: CostModel) -> None:
        callee = instr.callee
        if isinstance(callee, FunctionRef):
            name = callee.name
        else:
            addr = int(self._value(frame, callee))
            if addr not in self._funcs_by_addr:
                raise TrapError(f"call through bad function pointer {addr:#x}")
            name = self._funcs_by_addr[addr]
        args = [self._value(frame, a) for a in instr.args]
        self.cost += cm.call
        if name in BUILTINS:
            self._exec_builtin_call(frame, instr, name, args)
            return
        function = self.module.functions.get(name)
        if function is None:
            raise TrapError(f"call to undefined function {name!r}")
        if instr.pin_gated and self.hooks.wants_pin():
            # A conservatively-gated call toggles the Pintool even though
            # the target turns out to be instrumented code (§4.4.6).
            self.cost += self.hooks.on_pin_attach()
        if len(self._frames) >= self.max_recursion_depth:
            raise BudgetExceeded(
                f"recursion depth budget exceeded "
                f"({self.max_recursion_depth} frames) calling {name!r}"
            )
        callee_frame = _Frame(function, instr.result)
        for index, value in enumerate(args):
            callee_frame.temps[f"arg{index}"] = value
        self._frames.append(callee_frame)
        self.call_stack.append(name)
        self.cost += self.hooks.on_call_enter(
            name, not function.conventionally_optimized
        )

    def _exec_builtin_call(
        self, frame: _Frame, instr: Call, name: str, args: List
    ) -> None:
        spec = BUILTINS[name]
        pin_here = instr.pin_gated and self.hooks.wants_pin()
        if pin_here:
            self.cost += self.hooks.on_pin_attach()
            self._pin_active = True
        try:
            result = BUILTIN_IMPLS[name](self, args)
        finally:
            self._pin_active = False
        self.cost += spec.base_cost
        if instr.result is not None:
            frame.temps[instr.result.name] = result

    def _exec_ret(self, frame: _Frame, instr: Ret, cm: CostModel) -> None:
        value = self._value(frame, instr.value) if instr.value is not None else None
        for obj in frame.stack_objects:
            self.memory.release_stack_object(obj)
        self._frames.pop()
        self.call_stack.pop()
        self.cost += cm.ret
        if self._frames:
            self.cost += self.hooks.on_call_exit(frame.function.name)
            caller = self._frames[-1]
            if frame.result_temp is not None:
                caller.temps[frame.result_temp.name] = value
        else:
            self._return_value = value


def run_treewalk(
    module: Module,
    entry: str = "main",
    args: Tuple = (),
    hooks: Optional[ExecutionHooks] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    max_instructions: int = 2_000_000_000,
    budgets: Optional[ExecutionBudgets] = None,
    bytecode=None,
    trace_stream=None,
) -> RunResult:
    """:func:`repro.vm.run_module` on the oracle (``bytecode`` is unused)."""
    interp = Interpreter(module, hooks, cost_model, max_instructions,
                         budgets, trace_stream=trace_stream)
    return interp.run(entry, args)


def profile_treewalk(module: Module, entry: str = "main",
                     args: Tuple = ()) -> ExecutionProfile:
    """:func:`repro.parallel.profile.profile_execution` on the oracle."""
    hooks = ProfilingHooks(module)
    interp = Interpreter(module, hooks)
    interp.enable_line_tracing()
    hooks.profile.result = interp.run(entry, args)
    hooks.profile.line_costs = interp.line_costs
    return hooks.profile


@contextmanager
def treewalk_engine():
    """Run every module the compiler driver runs in the block on the
    oracle."""
    saved = driver.run_module
    driver.run_module = run_treewalk
    try:
        yield
    finally:
        driver.run_module = saved


def engine(name):
    """Context for one :data:`ENGINES` value."""
    return treewalk_engine() if name == "treewalk" else nullcontext()
