"""Dominator tree and dominance frontiers (Cooper–Harvey–Kennedy).

Used by mem2reg (φ placement), the natural-loop finder, and the compile-time
classification optimization (dominance checks for "store executes on every
ROI invocation").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.module import Block, Function


class DominatorInfo:
    """Immediate dominators, dominance queries, and dominance frontiers."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self._rpo = _reverse_postorder(function)
        self._rpo_index = {b: i for i, b in enumerate(self._rpo)}
        self._preds = function.predecessors()
        self.idom: Dict[Block, Optional[Block]] = {}
        self._compute_idoms()
        self._children: Dict[Block, List[Block]] = {b: [] for b in self._rpo}
        for block, parent in self.idom.items():
            if parent is not None and parent is not block:
                self._children[parent].append(block)
        self.frontier: Dict[Block, Set[Block]] = {}
        self._compute_frontiers()

    def _compute_idoms(self) -> None:
        entry = self.function.entry
        self.idom = {b: None for b in self._rpo}
        self.idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for block in self._rpo:
                if block is entry:
                    continue
                preds = [p for p in self._preds[block]
                         if self.idom.get(p) is not None]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = self._intersect(pred, new_idom)
                if self.idom[block] is not new_idom:
                    self.idom[block] = new_idom
                    changed = True

    def _intersect(self, a: Block, b: Block) -> Block:
        while a is not b:
            while self._rpo_index[a] > self._rpo_index[b]:
                a = self.idom[a]  # type: ignore[assignment]
            while self._rpo_index[b] > self._rpo_index[a]:
                b = self.idom[b]  # type: ignore[assignment]
        return a

    def _compute_frontiers(self) -> None:
        self.frontier = {b: set() for b in self._rpo}
        for block in self._rpo:
            preds = [p for p in self._preds[block] if self.idom.get(p) is not None]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner = pred
                while runner is not self.idom[block]:
                    self.frontier[runner].add(block)
                    runner = self.idom[runner]  # type: ignore[assignment]

    # -- queries --------------------------------------------------------------

    def dominates(self, a: Block, b: Block) -> bool:
        """Does ``a`` dominate ``b``?"""
        runner: Optional[Block] = b
        entry = self.function.entry
        while runner is not None:
            if runner is a:
                return True
            if runner is entry:
                return False
            runner = self.idom.get(runner)
        return False

    def children(self, block: Block) -> List[Block]:
        return self._children.get(block, [])


def _reverse_postorder(function: Function) -> List[Block]:
    seen: Set[Block] = set()
    order: List[Block] = []
    stack: List[tuple] = [(function.entry, iter(function.entry.successors()))]
    seen.add(function.entry)
    while stack:
        block, succs = stack[-1]
        advanced = False
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(succ.successors())))
                advanced = True
                break
        if not advanced:
            order.append(block)
            stack.pop()
    order.reverse()
    return order
