"""Conventional optimizations (the ``-O3`` analogue), in one place.

Constant folding, trivial-cast copy propagation, dead code elimination,
CFG cleanup (constant-branch folding, straight-line block merging), and
the full ``-O3`` composition (mem2reg + scalar-opt fixed point).  One
implementation serves every consumer: the baseline build runs
:func:`optimize_module_o3` on everything, and the call-graph optimization
of §4.4.5 runs :func:`optimize_o3` on provably-ROI-free functions —
erasing the variable↔IR mapping is only legal where PSEC provably cannot
care.

The module-level entry points are also registered as passes (``o3``,
``mem2reg``, ``cleanup``) so pipelines can name them.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

from repro.lang import types as ct
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
    Phi,
    ProbeAccess,
    ProbeClassify,
    ProbeEscape,
    Ret,
    RoiBegin,
    RoiEnd,
    Store,
)
from repro.ir.module import Block, Function, Module
from repro.ir.values import Const, Temp, Value
from repro.compiler.mem2reg import promote_allocas
from repro.passes.manager import Pass
from repro.passes.registry import register_pass

_FOLDABLE = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: int(a) & int(b),
    "or": lambda a, b: int(a) | int(b),
    "xor": lambda a, b: int(a) ^ int(b),
    "shl": lambda a, b: int(a) << (int(b) & 63),
    "shr": lambda a, b: int(a) >> (int(b) & 63),
    "eq": lambda a, b: 1 if a == b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "lt": lambda a, b: 1 if a < b else 0,
    "le": lambda a, b: 1 if a <= b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
    "ge": lambda a, b: 1 if a >= b else 0,
}

#: Instructions with side effects that DCE must never remove.
_EFFECTFUL = (Store, Call, Ret, Jump, Branch, RoiBegin, RoiEnd,
              ProbeAccess, ProbeClassify, ProbeEscape, Alloca)


def fold_constants(function: Function) -> int:
    """Fold constant BinOps/Casts and propagate the results.  Returns the
    number of instructions folded."""
    folded = 0
    replacements: Dict[str, Value] = {}

    def resolve(value: Value) -> Value:
        while isinstance(value, Temp) and value.name in replacements:
            value = replacements[value.name]
        return value

    for block in function.blocks:
        kept: List[Instr] = []
        for instr in block.instrs:
            for operand in list(instr.operands()):
                resolved = resolve(operand)
                if resolved is not operand:
                    instr.replace_operand(operand, resolved)
            if isinstance(instr, BinOp):
                lhs, rhs = instr.lhs, instr.rhs
                if (isinstance(lhs, Const) and isinstance(rhs, Const)
                        and instr.op in _FOLDABLE
                        and not (instr.op in ("div", "rem"))):
                    value = _FOLDABLE[instr.op](lhs.value, rhs.value)
                    replacements[instr.result.name] = Const(
                        value, instr.result.ty
                    )
                    folded += 1
                    continue
                # x + 0, x * 1, x - 0 identities.
                simplified = _identity(instr)
                if simplified is not None:
                    replacements[instr.result.name] = simplified
                    folded += 1
                    continue
            elif isinstance(instr, Cast):
                value = resolve(instr.value)
                to_float = isinstance(instr.result.ty, ct.FloatType)
                # A non-finite float cast to an integer stays a cast: it
                # traps when it runs.
                if isinstance(value, Const) and (
                        to_float or not isinstance(value.value, float)
                        or math.isfinite(value.value)):
                    if to_float:
                        casted: object = float(value.value)
                    else:
                        casted = int(value.value)
                    replacements[instr.result.name] = Const(
                        casted, instr.result.ty
                    )
                    folded += 1
                    continue
                if type(value.ty) is type(instr.result.ty):
                    replacements[instr.result.name] = value
                    folded += 1
                    continue
            elif isinstance(instr, AddrOffset):
                base, index = instr.base, instr.index
                if (isinstance(index, Const) and index.value == 0
                        and instr.offset == 0 and isinstance(base, Temp)):
                    replacements[instr.result.name] = base
                    folded += 1
                    continue
            kept.append(instr)
        block.instrs = kept
    if replacements:
        for block in function.blocks:
            for instr in block.instrs:
                for operand in list(instr.operands()):
                    resolved = resolve(operand)
                    if resolved is not operand:
                        instr.replace_operand(operand, resolved)
    return folded


def _identity(instr: BinOp) -> Optional[Value]:
    lhs, rhs = instr.lhs, instr.rhs
    if instr.op == "add":
        if isinstance(rhs, Const) and rhs.value == 0:
            return lhs
        if isinstance(lhs, Const) and lhs.value == 0:
            return rhs
    if instr.op == "sub" and isinstance(rhs, Const) and rhs.value == 0:
        return lhs
    if instr.op == "mul":
        if isinstance(rhs, Const) and rhs.value == 1:
            return lhs
        if isinstance(lhs, Const) and lhs.value == 1:
            return rhs
    return None


def eliminate_dead_code(function: Function) -> int:
    """Remove pure instructions whose results are never used."""
    removed = 0
    changed = True
    while changed:
        changed = False
        used: Set[str] = set()
        for block in function.blocks:
            for instr in block.instrs:
                for operand in instr.operands():
                    if isinstance(operand, Temp):
                        used.add(operand.name)
                if isinstance(instr, Store) and isinstance(instr.value, Temp):
                    used.add(instr.value.name)
        for block in function.blocks:
            kept: List[Instr] = []
            for instr in block.instrs:
                if (not isinstance(instr, _EFFECTFUL)
                        and instr.result is not None
                        and instr.result.name not in used):
                    removed += 1
                    changed = True
                    continue
                kept.append(instr)
            block.instrs = kept
    return removed


def simplify_cfg(function: Function) -> int:
    """Fold constant branches, thread trivial jumps, drop dead blocks."""
    changes = 0
    for block in function.blocks:
        term = block.terminator
        if isinstance(term, Branch) and isinstance(term.cond, Const):
            target = term.if_true if term.cond.value != 0 else term.if_false
            block.instrs[-1] = Jump(target, term.loc)
            changes += 1
        elif isinstance(term, Branch) and term.if_true is term.if_false:
            block.instrs[-1] = Jump(term.if_true, term.loc)
            changes += 1
    # Thread jumps through empty forwarding blocks (single Jump, no φ users).
    forwarding: Dict[Block, Block] = {}
    for block in function.blocks:
        if (len(block.instrs) == 1 and isinstance(block.instrs[0], Jump)
                and block is not function.entry):
            target = block.instrs[0].target
            if not any(isinstance(i, Phi) for i in target.instrs):
                forwarding[block] = target

    def final_target(block: Block) -> Block:
        seen = set()
        while block in forwarding and block not in seen:
            seen.add(block)
            block = forwarding[block]
        return block

    if forwarding:
        has_phis = any(
            isinstance(i, Phi) for b in function.blocks for i in b.instrs
        )
        if not has_phis:
            for block in function.blocks:
                term = block.terminator
                if isinstance(term, Jump):
                    new = final_target(term.target)
                    if new is not term.target:
                        term.target = new
                        changes += 1
                elif isinstance(term, Branch):
                    new_t = final_target(term.if_true)
                    new_f = final_target(term.if_false)
                    if new_t is not term.if_true or new_f is not term.if_false:
                        term.if_true = new_t
                        term.if_false = new_f
                        changes += 1
    before = len(function.blocks)
    function.remove_unreachable_blocks()
    changes += before - len(function.blocks)
    return changes


def optimize_function(function: Function) -> None:
    """Fixed-point driver over the scalar optimizations."""
    for _ in range(8):
        work = fold_constants(function)
        work += eliminate_dead_code(function)
        work += simplify_cfg(function)
        if work == 0:
            break


def optimize_o3(function: Function) -> None:
    """Full conventional optimization of one function (mem2reg + scalar
    fixed point).  Erases the variable↔IR mapping — see module docstring
    for when that is legal."""
    promote_allocas(function)
    optimize_function(function)
    function.conventionally_optimized = True


def optimize_module_o3(module: Module) -> None:
    for function in module.functions.values():
        optimize_o3(function)


# ---------------------------------------------------------------------------
# Registered passes
# ---------------------------------------------------------------------------


@register_pass
class O3Pass(Pass):
    """Module-wide conventional -O3: the baseline build's only pass."""

    name = "o3"
    mutates_ir = True

    def run(self, module, am, ctx) -> bool:
        optimize_module_o3(module)
        return True


@register_pass
class Mem2RegPass(Pass):
    """Full memory-to-register promotion of every eligible alloca."""

    name = "mem2reg"
    mutates_ir = True

    def run(self, module, am, ctx) -> bool:
        promoted = 0
        for function in module.functions.values():
            promoted += promote_allocas(function)
        return promoted > 0


@register_pass
class CleanupPass(Pass):
    """Scalar-opt fixed point (fold/DCE/CFG) on every function."""

    name = "cleanup"
    mutates_ir = True

    def run(self, module, am, ctx) -> bool:
        before = module.ir_stats()
        for function in module.functions.values():
            optimize_function(function)
        return module.ir_stats() != before
