"""IR verifier: structural invariants the rest of the toolchain relies on."""

from __future__ import annotations

from typing import Set

from repro.errors import IRVerifyError
from repro.ir.instructions import RoiBegin, RoiEnd, Temp
from repro.ir.module import Function, Module
from repro.ir.values import Const, FunctionRef, GlobalRef, Value


def verify_module(module: Module) -> None:
    """Raise :class:`IRVerifyError` if the module violates an invariant."""
    for function in module.functions.values():
        _verify_function(module, function)


def _verify_function(module: Module, function: Function) -> None:
    if not function.blocks:
        raise IRVerifyError(f"{function.name}: function has no blocks")
    block_set = set(function.blocks)
    defined: Set[str] = {f"arg{i}" for i in range(len(function.param_vars))}
    for block in function.blocks:
        if block.terminator is None:
            raise IRVerifyError(f"{function.name}/{block.label}: not terminated")
        for index, instr in enumerate(block.instrs):
            if instr.is_terminator and index != len(block.instrs) - 1:
                raise IRVerifyError(
                    f"{function.name}/{block.label}: terminator not last"
                )
            result = instr.result
            if isinstance(result, Temp):
                if result.name in defined:
                    raise IRVerifyError(
                        f"{function.name}: temp %{result.name} defined twice"
                    )
                defined.add(result.name)
        for succ in block.successors():
            if succ not in block_set:
                raise IRVerifyError(
                    f"{function.name}/{block.label}: branch to foreign block"
                )
    _verify_operands(module, function, defined)
    _verify_roi_markers(module, function)


def _verify_operands(module: Module, function: Function, defined: Set[str]) -> None:
    for instr in function.instructions():
        for op in instr.operands():
            _verify_value(module, function, op, defined)


def _verify_value(module: Module, function: Function, value: Value,
                  defined: Set[str]) -> None:
    if isinstance(value, Const):
        return
    if isinstance(value, Temp):
        if value.name not in defined:
            raise IRVerifyError(f"{function.name}: use of undefined %{value.name}")
        return
    if isinstance(value, GlobalRef):
        if value.name not in module.globals:
            raise IRVerifyError(f"{function.name}: unknown global @{value.name}")
        return
    if isinstance(value, FunctionRef):
        if not value.is_builtin and value.name not in module.functions:
            raise IRVerifyError(
                f"{function.name}: reference to unknown function @{value.name}"
            )
        return
    raise IRVerifyError(f"{function.name}: unknown operand kind {value!r}")


def _verify_roi_markers(module: Module, function: Function) -> None:
    for instr in function.instructions():
        if isinstance(instr, (RoiBegin, RoiEnd)):
            if instr.roi_id not in module.rois:
                raise IRVerifyError(
                    f"{function.name}: marker references unknown ROI "
                    f"#{instr.roi_id}"
                )
