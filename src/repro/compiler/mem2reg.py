"""Memory-to-register promotion (SSA construction).

Two clients:

- the **baseline/-O3 analogue** promotes every eligible alloca — this is
  the "general-purpose compiler optimization" that §2.3 explains is
  *incompatible* with PSEC (it erases the variable↔IR mapping), which is
  why it may only run where PSEC provably cannot care;
- the **selective mem2reg** of §4.4.4 promotes only allocas a filter
  approves (locals never used in any ROI, and loop-governing induction
  variables).

Standard algorithm: φ insertion at the iterated dominance frontier of the
defining stores, then renaming along the dominator tree.  Eligibility:
scalar allocas whose address never escapes direct loads/stores.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.lang import types as ct
from repro.ir.instructions import Alloca, Instr, Load, Phi, Store
from repro.ir.module import Block, Function
from repro.ir.values import Const, Temp, Value
from repro.analysis.dominators import DominatorInfo
from repro.analysis.pdg import address_taken_allocas


def promotable_allocas(function: Function) -> List[Alloca]:
    """Allocas eligible for promotion: scalar, never address-taken."""
    taken = address_taken_allocas(function)
    result = []
    for instr in function.entry.instrs:
        if not isinstance(instr, Alloca):
            continue
        if instr.result.name in taken:
            continue
        if not instr.allocated_type.is_scalar:
            continue
        result.append(instr)
    return result


def promote_allocas(
    function: Function,
    allocas: Optional[List[Alloca]] = None,
) -> int:
    """Promote ``allocas`` (default: all eligible) to SSA values.

    Returns the number of allocas promoted.  Promoted allocas, their loads,
    and their stores are removed; φ-nodes are inserted where needed.
    """
    eligible = set(a.result.name for a in promotable_allocas(function))
    if allocas is None:
        chosen = [a for a in function.entry.instrs
                  if isinstance(a, Alloca) and a.result.name in eligible]
    else:
        chosen = [a for a in allocas if a.result.name in eligible]
    if not chosen:
        return 0
    dom = DominatorInfo(function)
    slots = {a.result.name: a for a in chosen}

    def_blocks: Dict[str, Set[Block]] = {name: set() for name in slots}
    for block in function.blocks:
        for instr in block.instrs:
            if isinstance(instr, Store) and isinstance(instr.ptr, Temp):
                if instr.ptr.name in slots:
                    def_blocks[instr.ptr.name].add(block)

    # φ placement at iterated dominance frontiers.  Blocks hash by
    # identity, so both block sets are walked in layout order: φ order
    # and temp numbers must not depend on object addresses.
    layout = {block: index for index, block in enumerate(function.blocks)}
    phi_sites: Dict[Tuple[Block, str], Phi] = {}
    for name, blocks in def_blocks.items():
        worklist = sorted(blocks, key=layout.__getitem__)
        placed: Set[Block] = set()
        while worklist:
            block = worklist.pop()
            for frontier_block in sorted(dom.frontier.get(block, ()),
                                         key=layout.__getitem__):
                if (frontier_block, name) in phi_sites:
                    continue
                alloca = slots[name]
                phi = Phi(
                    Temp(function.new_temp_name(), alloca.allocated_type),
                    {},
                    alloca.loc,
                )
                phi_sites[(frontier_block, name)] = phi
                frontier_block.instrs.insert(0, phi)
                if frontier_block not in placed:
                    placed.add(frontier_block)
                    worklist.append(frontier_block)

    phi_owner: Dict[int, str] = {
        id(phi): name for (_, name), phi in phi_sites.items()
    }

    # Renaming along the dominator tree.
    undef: Dict[str, Value] = {}
    for name, alloca in slots.items():
        zero: Value = Const(0, ct.INT)
        if isinstance(alloca.allocated_type, ct.FloatType):
            zero = Const(0.0, ct.FLOAT)
        elif isinstance(alloca.allocated_type, ct.PointerType):
            zero = Const(0, alloca.allocated_type)
        undef[name] = zero

    stacks: Dict[str, List[Value]] = {name: [] for name in slots}
    replacements: Dict[str, Value] = {}  # load result temp -> value

    def current(name: str) -> Value:
        stack = stacks[name]
        return stack[-1] if stack else undef[name]

    def resolve(value: Value) -> Value:
        seen = 0
        while isinstance(value, Temp) and value.name in replacements:
            value = replacements[value.name]
            seen += 1
            if seen > 1_000_000:  # pragma: no cover - cycle guard
                break
        return value

    entry = function.entry
    visit_stack: List[Tuple[Block, int, List[str]]] = [(entry, 0, [])]
    # Iterative dom-tree DFS with explicit push counts for unwinding.
    order: List[Tuple[str, Block, List[str]]] = []

    def process_block(block: Block) -> List[str]:
        pushed: List[str] = []
        new_instrs: List[Instr] = []
        for instr in block.instrs:
            if isinstance(instr, Phi) and id(instr) in phi_owner:
                name = phi_owner[id(instr)]
                stacks[name].append(instr.result)
                pushed.append(name)
                new_instrs.append(instr)
            elif (isinstance(instr, Load) and isinstance(instr.ptr, Temp)
                    and instr.ptr.name in slots):
                replacements[instr.result.name] = current(instr.ptr.name)
            elif (isinstance(instr, Store) and isinstance(instr.ptr, Temp)
                    and instr.ptr.name in slots):
                stacks[instr.ptr.name].append(resolve(instr.value))
                pushed.append(instr.ptr.name)
            elif isinstance(instr, Alloca) and instr.result.name in slots:
                instr.promoted = True
            else:
                new_instrs.append(instr)
        block.instrs = new_instrs
        # Fill φ arms of successors.
        for succ in block.successors():
            for instr in succ.instrs:
                if not isinstance(instr, Phi):
                    break
                name = phi_owner.get(id(instr))
                if name is not None:
                    instr.incomings[block] = current(name)
        return pushed

    stack: List[Tuple[Block, bool]] = [(entry, False)]
    pushed_by_block: Dict[Block, List[str]] = {}
    while stack:
        block, done = stack.pop()
        if done:
            for name in reversed(pushed_by_block.get(block, [])):
                stacks[name].pop()
            continue
        pushed_by_block[block] = process_block(block)
        stack.append((block, True))
        for child in dom.children(block):
            stack.append((child, False))

    # Rewrite every remaining operand through the replacement map, and drop
    # the promoted allocas.
    for block in function.blocks:
        kept: List[Instr] = []
        for instr in block.instrs:
            if isinstance(instr, Alloca) and instr.result.name in slots:
                continue
            for operand in list(instr.operands()):
                resolved = resolve(operand)
                if resolved is not operand:
                    instr.replace_operand(operand, resolved)
            if isinstance(instr, Store):
                resolved = resolve(instr.value)
                if resolved is not instr.value:
                    instr.value = resolved
            kept.append(instr)
        block.instrs = kept
    # φ arms may also reference replaced temps (loads in predecessors).
    for block in function.blocks:
        for instr in block.instrs:
            if isinstance(instr, Phi):
                for pred, value in list(instr.incomings.items()):
                    instr.incomings[pred] = resolve(value)
    for name in slots:
        promoted = function.var_allocas
        for uid, alloca in list(promoted.items()):
            if alloca.result.name == name:
                alloca.promoted = True
    return len(slots)
