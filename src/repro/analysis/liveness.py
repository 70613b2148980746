"""Read-after-region analysis.

Refines the FSA's conservative Output assumption (§4.1): the FSA assumes
every PSE written in an ROI is read outside it, because CARMOT does not
profile non-ROI code.  At compile time, however, a *local variable* whose
value is provably never read after the region (for loop-body ROIs: after
the enclosing loop) cannot really be an output — which is how Figure 1's
``x`` and ``i`` become ``private`` instead of ``lastprivate`` (§2.2).

Globals, address-taken locals, and heap PSEs are never refined: code the
compiler cannot see may read them.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.instructions import Alloca, Load
from repro.ir.module import Block, Function
from repro.ir.values import Temp
from repro.analysis.loops import find_loops, innermost_loop_containing
from repro.analysis.pdg import address_taken_allocas
from repro.analysis.regions import RoiRegion


def locals_read_after_region(
    function: Function,
    region: RoiRegion,
    is_loop_body: bool,
) -> Set[int]:
    """uids of local/param variables that may be read after the region.

    Address-taken locals are always included (a stored-away pointer can be
    read anywhere).  For loop-body ROIs the "after" horizon starts at the
    enclosing loop's exit edges — reads by the loop's own header/step
    machinery (the induction variable) do not count as escaping the region.
    """
    taken = address_taken_allocas(function)
    var_of_alloca: Dict[str, int] = {}
    always: Set[int] = set()
    for instr in function.entry.instrs:
        if isinstance(instr, Alloca) and instr.var is not None:
            var_of_alloca[instr.result.name] = instr.var.uid
            if instr.result.name in taken:
                always.add(instr.var.uid)

    start_points = _after_points(function, region, is_loop_body)
    reachable = _instructions_from(function, start_points)
    result = set(always)
    for instr in reachable:
        if isinstance(instr, Load) and isinstance(instr.ptr, Temp):
            uid = var_of_alloca.get(instr.ptr.name)
            if uid is not None:
                result.add(uid)
    return result


def _after_points(
    function: Function, region: RoiRegion, is_loop_body: bool
) -> List[Tuple[Block, int]]:
    if is_loop_body:
        loops = find_loops(function)
        loop = innermost_loop_containing(loops, region.begin_block)
        if loop is not None:
            return [(exit_block, 0) for exit_block in loop.exits]
    return [(block, index + 1) for block, index in region.end_sites]


def _instructions_from(
    function: Function, points: List[Tuple[Block, int]]
) -> List:
    seen_blocks: Set[Block] = set()
    result: List = []
    work: List[Tuple[Block, int]] = list(points)
    while work:
        block, start = work.pop()
        if start == 0:
            if block in seen_blocks:
                continue
            seen_blocks.add(block)
        result.extend(block.instrs[start:])
        for succ in block.successors():
            if succ not in seen_blocks:
                work.append((succ, 0))
    return result
