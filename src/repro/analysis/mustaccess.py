"""Must-already-accessed data-flow analysis (optimization 1, §4.4).

For each load/store inside an ROI region, decide whether the PSE it touches
*must* already have been accessed (for loads) or written (for stores) since
the beginning of the current ROI invocation, on every path.  If so the
probe is redundant:

- a subsequent read (Rn) never changes any FSA state;
- a subsequent write (Wn) only matters from state I, i.e. before the first
  write — so a write probe is redundant once a write is guaranteed.

PSEs are identified syntactically: the address must be the very same alloca
result or global reference.  Derived addresses (pointer arithmetic) cannot
be proven to repeat and generate nothing (GEN = ∅), exactly the "proved to
always access the same PSE" restriction of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.ir.instructions import Load, Store
from repro.ir.module import Block, Function
from repro.ir.values import GlobalRef, Temp, Value
from repro.analysis.dataflow import ForwardMustProblem
from repro.analysis.regions import RoiRegion


def pse_key_of_address(function: Function, addr: Value) -> Optional[Tuple]:
    """Syntactic PSE identity of an address, or None if unprovable."""
    if isinstance(addr, GlobalRef):
        return ("global", addr.name)
    if isinstance(addr, Temp):
        # Alloca results are the only temps that *are* stable addresses.
        for instr in function.entry.instrs:
            result = instr.result
            if result is addr:
                from repro.ir.instructions import Alloca

                if isinstance(instr, Alloca):
                    return ("alloca", function.name, addr.name)
                return None
    return None


@dataclass
class MustAccessResult:
    """Per-(block, index) sets of PSEs guaranteed accessed/written before."""

    accessed_before: Dict[Tuple[Block, int], FrozenSet]
    written_before: Dict[Tuple[Block, int], FrozenSet]

    def load_is_redundant(self, function: Function, block: Block, index: int,
                          instr: Load) -> bool:
        key = pse_key_of_address(function, instr.ptr)
        if key is None:
            return False
        before = self.accessed_before.get((block, index))
        return before is not None and key in before

    def store_is_redundant(self, function: Function, block: Block, index: int,
                           instr: Store) -> bool:
        key = pse_key_of_address(function, instr.ptr)
        if key is None:
            return False
        before = self.written_before.get((block, index))
        return before is not None and key in before


def analyze_must_access(function: Function, region: RoiRegion) -> MustAccessResult:
    """Run the two must-sets (accessed, written) over the ROI region."""
    alloca_cache: Dict[str, Optional[Tuple]] = {}

    def key_of(addr: Value) -> Optional[Tuple]:
        if isinstance(addr, Temp):
            if addr.name not in alloca_cache:
                alloca_cache[addr.name] = pse_key_of_address(function, addr)
            return alloca_cache[addr.name]
        return pse_key_of_address(function, addr)

    accessed_before: Dict[Tuple[Block, int], FrozenSet] = {}
    written_before: Dict[Tuple[Block, int], FrozenSet] = {}

    def make_transfer(track_writes_only: bool, results: Dict):
        def transfer(block: Block, in_set: FrozenSet) -> FrozenSet:
            span = region.spans.get(block)
            current = set(in_set)
            if span is None:
                return frozenset(current)
            start, end = span
            for index in range(start, end):
                instr = block.instrs[index]
                if isinstance(instr, (Load, Store)):
                    results[(block, index)] = frozenset(current)
                if isinstance(instr, Store):
                    key = key_of(instr.ptr)
                    if key is not None:
                        current.add(key)
                elif isinstance(instr, Load) and not track_writes_only:
                    key = key_of(instr.ptr)
                    if key is not None:
                        current.add(key)
            return frozenset(current)

        return transfer

    blocks = region.blocks
    entries = {region.begin_block}
    problem = ForwardMustProblem(
        function, blocks, entries, make_transfer(False, accessed_before)
    )
    problem.solve()
    # The recorded per-instruction snapshots above were taken during solving;
    # re-run the transfer once more with the final IN sets for determinism.
    in_sets, _ = problem.solve()
    accessed_before.clear()
    transfer = make_transfer(False, accessed_before)
    for block in blocks:
        in_set = in_sets.get(block)
        if in_set is not None:
            transfer(block, in_set)

    problem_w = ForwardMustProblem(
        function, blocks, entries, make_transfer(True, written_before)
    )
    in_sets_w, _ = problem_w.solve()
    written_before.clear()
    transfer_w = make_transfer(True, written_before)
    for block in blocks:
        in_set = in_sets_w.get(block)
        if in_set is not None:
            transfer_w(block, in_set)

    return MustAccessResult(accessed_before, written_before)
