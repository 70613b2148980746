"""Static reduction-pattern detection over ROI regions (§3.2).

For a Transfer variable, CARMOT inspects each use: if every read-modify-
write of the variable inside the ROI is the same OpenMP-supported reduction
operator, the variable goes into a ``reduction(op:var)`` clause; otherwise
the statements touching it must be wrapped in critical/ordered sections.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ir.instructions import REDUCIBLE_OPS, BinOp, Load, Store
from repro.ir.module import Function
from repro.ir.values import Temp, Value
from repro.analysis.regions import RoiRegion


def detect_reduction(function: Function, region: RoiRegion,
                     slot: Value) -> Optional[str]:
    """The OpenMP reduction operator for ``slot``'s updates, or None.

    Requirements: every in-region store to the slot stores the result of a
    reducible BinOp over the loaded old value, every in-region load of the
    slot feeds only such BinOps, and all updates use the same operator.
    """
    loads: List[Load] = []
    stores: List[Store] = []
    for _, _, instr in region.instructions():
        if isinstance(instr, Load) and instr.ptr is slot:
            loads.append(instr)
        elif isinstance(instr, Store) and instr.ptr is slot:
            stores.append(instr)
    if not stores or not loads:
        return None

    load_results = {l.result.name for l in loads}
    binop_by_result = {}
    for _, _, instr in region.instructions():
        if isinstance(instr, BinOp):
            binop_by_result[instr.result.name] = instr

    ops = set()
    consumed_loads = set()
    for store in stores:
        if not isinstance(store.value, Temp):
            return None
        binop = binop_by_result.get(store.value.name)
        if binop is None or binop.op not in REDUCIBLE_OPS:
            return None
        sides = [binop.lhs, binop.rhs]
        load_side = [v for v in sides
                     if isinstance(v, Temp) and v.name in load_results]
        if len(load_side) != 1:
            return None
        consumed_loads.add(load_side[0].name)
        ops.add(binop.op)
    if len(ops) != 1:
        return None

    # Every load of the slot must feed only reduction updates: a read of
    # the running value anywhere else makes the order observable.
    for _, _, instr in region.instructions():
        for operand in instr.operands():
            if isinstance(operand, Temp) and operand.name in load_results:
                if isinstance(instr, BinOp) and instr.op in REDUCIBLE_OPS:
                    continue
                return None
    return REDUCIBLE_OPS[next(iter(ops))]
