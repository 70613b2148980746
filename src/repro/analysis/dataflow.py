"""A small generic data-flow framework: forward intersection over blocks.

The PSEC-specific analyses (must-already-accessed of §4.4.1, liveness for
the Output refinement) instantiate this solver; it is deliberately the
classic worklist algorithm over basic blocks.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.ir.module import Block, Function

#: TOP for intersection problems is "the universal set", represented as None.
SetOrTop = Optional[FrozenSet]


def meet_intersection(values: Iterable[SetOrTop]) -> SetOrTop:
    result: SetOrTop = None
    for value in values:
        if value is None:
            continue
        result = value if result is None else (result & value)
    return result


class ForwardMustProblem:
    """Forward intersection ("must") data-flow over a block subset.

    ``blocks`` restricts propagation (predecessors outside the subset are
    ignored — exactly the "do not follow blocks that leave the ROI" rule of
    §4.4.1).  ``entries`` are the blocks whose IN is forced to ``frozenset()``
    (nothing accessed yet).  ``transfer(block, in_set)`` returns OUT.
    """

    def __init__(
        self,
        function: Function,
        blocks: Iterable[Block],
        entries: Iterable[Block],
        transfer: Callable[[Block, FrozenSet], FrozenSet],
    ) -> None:
        self.function = function
        self.blocks = set(blocks)
        self.entries = set(entries)
        self.transfer = transfer

    def solve(self) -> Tuple[Dict[Block, SetOrTop], Dict[Block, SetOrTop]]:
        preds = self.function.predecessors()
        in_sets: Dict[Block, SetOrTop] = {b: None for b in self.blocks}
        out_sets: Dict[Block, SetOrTop] = {b: None for b in self.blocks}
        worklist = list(self.blocks)
        while worklist:
            block = worklist.pop()
            relevant = [p for p in preds.get(block, ()) if p in self.blocks]
            if block in self.entries:
                # An entry reached both fresh and around a loop keeps
                # only what every path guarantees: nothing.
                new_in: SetOrTop = frozenset()
            else:
                new_in = meet_intersection(out_sets[p] for p in relevant)
            if new_in is None:
                continue  # unreachable so far
            new_out = self.transfer(block, new_in)
            if new_in != in_sets[block] or new_out != out_sets[block]:
                in_sets[block] = new_in
                out_sets[block] = new_out
                for succ in block.successors():
                    if succ in self.blocks:
                        worklist.append(succ)
        return in_sets, out_sets

