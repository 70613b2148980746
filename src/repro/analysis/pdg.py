"""Memory-dependence queries (the PDG slice CARMOT's optimizations use).

The fixed-classification optimization (§4.4.3) asks one question of the
PDG: *does this store have an incoming memory-dependence edge whose source
is inside the ROI?* — equivalently, may any in-ROI load read the PSE this
store writes.  We answer it with the points-to analysis plus a careful
treatment of precompiled (builtin) code, which can read memory the compiler
cannot see: if the ROI contains a memory-touching builtin call, only
never-address-taken allocas are provably safe from it.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro import builtins_spec
from repro.ir.instructions import Alloca, Call, Load, Store
from repro.ir.module import Function
from repro.ir.values import Temp, Value
from repro.analysis.alias import PointsTo
from repro.analysis.regions import RoiRegion


def address_taken_allocas(function: Function) -> Set[str]:
    """Alloca result temps whose address flows anywhere beyond direct
    loads/stores — pointer arithmetic, calls, stores *of* the address, phi.

    A never-address-taken alloca is invisible to callees and builtins; it is
    also exactly the promotability condition of mem2reg.
    """
    alloca_names = {
        instr.result.name
        for instr in function.entry.instrs
        if isinstance(instr, Alloca)
    }
    taken: Set[str] = set()

    def mark(value: Value) -> None:
        if isinstance(value, Temp) and value.name in alloca_names:
            taken.add(value.name)

    from repro.ir.instructions import ProbeAccess, ProbeClassify, ProbeEscape

    for block in function.blocks:
        for instr in block.instrs:
            if isinstance(instr, Load):
                continue  # load *through* the slot is fine
            if isinstance(instr, Store):
                mark(instr.value)  # storing the address escapes it
                continue
            if isinstance(instr, (ProbeAccess, ProbeClassify)):
                continue  # probes observe the slot, they do not escape it
            if isinstance(instr, ProbeEscape):
                mark(instr.value)  # the stored pointer value still escapes
                continue
            for operand in instr.operands():
                mark(operand)
    return taken


class MemoryDependences:
    """Per-function memory-dependence oracle over one ROI region."""

    def __init__(self, function: Function, region: RoiRegion,
                 points_to: PointsTo) -> None:
        self.function = function
        self.region = region
        self.points_to = points_to
        self._taken = address_taken_allocas(function)
        self._region_loads: List[Load] = []
        self._region_has_memory_builtin = False
        self._region_has_user_call = False
        for _, _, instr in region.instructions():
            if isinstance(instr, Load):
                self._region_loads.append(instr)
            elif isinstance(instr, Call):
                self._classify_call(instr)

    def _classify_call(self, instr: Call) -> None:
        target = instr.direct_target
        if target is not None and target in builtins_spec.BUILTINS:
            if builtins_spec.BUILTINS[target].touches_memory:
                self._region_has_memory_builtin = True
            return
        self._region_has_user_call = True

    def _safe_from_opaque_code(self, addr: Value) -> bool:
        return (isinstance(addr, Temp)
                and addr.name not in self._taken
                and any(isinstance(i, Alloca) and i.result is addr
                        for i in self.function.entry.instrs))

    def store_unread_in_roi(self, store: Store) -> bool:
        """True when no in-ROI read (visible or opaque) may see this store's
        PSE — the §4.4.3 condition for forcing the Output classification."""
        if self._region_has_user_call or self._region_has_memory_builtin:
            if not self._safe_from_opaque_code(store.ptr):
                return False
        fn = self.function.name
        for load in self._region_loads:
            if self.points_to.may_alias(fn, store.ptr, fn, load.ptr):
                return False
        return True

    def load_invariant_in_roi(self, load: Load,
                              region_stores: Optional[List[Store]] = None
                              ) -> bool:
        """True when no in-ROI write may touch this load's PSE — the
        §4.4.3 condition for forcing the Input classification."""
        if self._region_has_user_call or self._region_has_memory_builtin:
            if not self._safe_from_opaque_code(load.ptr):
                return False
        if region_stores is None:
            region_stores = [
                instr for _, _, instr in self.region.instructions()
                if isinstance(instr, Store)
            ]
        fn = self.function.name
        for store in region_stores:
            if self.points_to.may_alias(fn, load.ptr, fn, store.ptr):
                return False
        return True
