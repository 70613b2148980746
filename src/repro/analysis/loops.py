"""Natural-loop discovery and loop-trip-count pattern matching.

The aggregation and fixed-classification optimizations (§4.4.2/§4.4.3) need
to know, for an ROI wrapping a loop body: the loop's blocks, its preheader
(the unique out-of-loop predecessor of the header, where hoisted probes
go), and — for contiguous-PSE aggregation — a simple symbolic trip count
(`0 <= i < bound`, step +1) recognisable from the lowered `for` shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.instructions import BinOp, Branch, Load, Store
from repro.ir.module import Block, Function
from repro.ir.values import Const, Temp, Value
from repro.analysis.dominators import DominatorInfo


@dataclass
class Loop:
    header: Block
    blocks: Set[Block]
    latches: List[Block]
    preheader: Optional[Block]

    def contains(self, block: Block) -> bool:
        return block in self.blocks

    @property
    def exits(self) -> List[Block]:
        result = []
        for block in self.blocks:
            for succ in block.successors():
                if succ not in self.blocks and succ not in result:
                    result.append(succ)
        return result


@dataclass
class TripCount:
    """A recognised ``for (i = start; i < bound; ++i)`` trip pattern.

    ``bound`` is either a constant int or the address value whose load
    yields the bound (a re-loadable scalar variable).
    """

    induction_alloca: Value  # address of the induction variable's slot
    start: int
    bound_const: Optional[int]
    bound_addr: Optional[Value]

    @property
    def constant_trips(self) -> Optional[int]:
        if self.bound_const is None:
            return None
        return max(0, self.bound_const - self.start)


def find_loops(function: Function,
               dom: Optional[DominatorInfo] = None) -> List[Loop]:
    """All natural loops, innermost-last, via back-edge detection."""
    dom = dom or DominatorInfo(function)
    back_edges: List[Tuple[Block, Block]] = []
    for block in function.blocks:
        for succ in block.successors():
            if dom.dominates(succ, block):
                back_edges.append((block, succ))
    loops_by_header: Dict[Block, Loop] = {}
    preds = function.predecessors()
    for latch, header in back_edges:
        body: Set[Block] = {header}
        stack = [latch]
        while stack:
            block = stack.pop()
            if block in body:
                continue
            body.add(block)
            stack.extend(preds.get(block, ()))
        loop = loops_by_header.get(header)
        if loop is None:
            loop = Loop(header, body, [latch], None)
            loops_by_header[header] = loop
        else:
            loop.blocks |= body
            loop.latches.append(latch)
    for loop in loops_by_header.values():
        outside = [p for p in preds.get(loop.header, ())
                   if p not in loop.blocks]
        if len(outside) == 1:
            loop.preheader = outside[0]
    result = list(loops_by_header.values())
    result.sort(key=lambda l: len(l.blocks), reverse=True)
    return result


def innermost_loop_containing(loops: List[Loop], block: Block) -> Optional[Loop]:
    best: Optional[Loop] = None
    for loop in loops:
        if loop.contains(block):
            if best is None or len(loop.blocks) < len(best.blocks):
                best = loop
    return best


def match_trip_count(function: Function, loop: Loop,
                     induction_alloca: Optional[Value]) -> Optional[TripCount]:
    """Recognise the canonical lowered ``for`` pattern.

    Looks for a header of the form::

        %v   = load <ind_slot>
        %cmp = lt %v, <bound>
        br %cmp, body, exit

    with a constant 0 store to the slot in the preheader side.  ``bound``
    may be a constant or a load of a scalar slot.
    """
    header = loop.header
    branch = header.terminator
    if not isinstance(branch, Branch):
        return None
    cmp_instr = None
    for instr in header.instrs:
        if isinstance(instr, BinOp) and instr.result is branch.cond:
            cmp_instr = instr
    if cmp_instr is None or cmp_instr.op not in ("lt", "le"):
        return None
    load_instr = None
    for instr in header.instrs:
        if isinstance(instr, Load) and instr.result is cmp_instr.lhs:
            load_instr = instr
    if load_instr is None:
        return None
    slot = load_instr.ptr
    if induction_alloca is not None and slot is not induction_alloca:
        return None
    start = _find_constant_store(function, loop, slot)
    if start is None:
        return None
    bound = cmp_instr.rhs
    extra = 1 if cmp_instr.op == "le" else 0
    if isinstance(bound, Const) and isinstance(bound.value, int):
        return TripCount(slot, start, bound.value + extra, None)
    if isinstance(bound, Temp):
        # Accept "load of a scalar slot" bounds: find the defining load in
        # the header (the bound is re-loadable at the aggregation site).
        for instr in header.instrs:
            if isinstance(instr, Load) and instr.result is bound:
                if extra:
                    return None  # re-loaded `<=` bounds are not worth it
                return TripCount(slot, start, None, instr.ptr)
    return None


def _find_constant_store(function: Function, loop: Loop,
                         slot: Value) -> Optional[int]:
    """The constant initial value stored to ``slot`` before the loop."""
    candidates: List[int] = []
    for block in function.blocks:
        if block in loop.blocks:
            continue
        for instr in block.instrs:
            if isinstance(instr, Store) and instr.ptr is slot:
                if isinstance(instr.value, Const) and isinstance(
                    instr.value.value, int
                ):
                    candidates.append(instr.value.value)
                else:
                    return None
    if len(candidates) == 1:
        return candidates[0]
    return None
