"""MiniC virtual machine: memory model, execution engine, cost model.

``run_module`` lowers verified IR to register bytecode
(:mod:`repro.vm.codegen`) and runs it on the dispatch loop
(:mod:`repro.vm.bcinterp`).
"""

from repro.vm.bcinterp import BytecodeInterpreter, run_module
from repro.vm.bytecode import (
    BytecodeError,
    BytecodeFunction,
    BytecodeModule,
    BytecodeSerializeError,
    bytecode_digest,
    deserialize_bytecode,
    serialize_bytecode,
)
from repro.vm.codegen import lower_module
from repro.vm.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.vm.hooks import ExecutionHooks
from repro.vm.memory import Memory, MemoryObject
from repro.vm.result import RunResult

__all__ = [
    "BytecodeError",
    "BytecodeFunction",
    "BytecodeInterpreter",
    "BytecodeModule",
    "BytecodeSerializeError",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "ExecutionHooks",
    "RunResult",
    "bytecode_digest",
    "deserialize_bytecode",
    "lower_module",
    "run_module",
    "serialize_bytecode",
    "Memory",
    "MemoryObject",
]
