"""The PSEC Reachability Graph (§3.1) and reference-cycle analysis (§3.2).

Nodes are PSEs allocated while the ROI is active; edges record pointer
escapes (a pointer to PSE *b* stored into PSE *a* creates edge a→b).  Cycle
detection runs Tarjan's SCC algorithm; for each cycle CARMOT suggests
turning the reference *into the node with the oldest access time* into a
weak pointer — breaking the cycle at its most senior member lets programs
be ported to smart pointers gradually.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple



@dataclass
class ReachNode:
    obj_id: int
    allocated_in_roi: bool
    alloc_time: int
    first_access_time: int


@dataclass(frozen=True)
class ReachEdge:
    src: int
    dst: int
    src_offset: int
    time: int
    loc: Optional[str]


@dataclass
class CycleReport:
    """One reference cycle plus the weak-pointer suggestion breaking it."""

    nodes: Tuple[int, ...]
    edges: Tuple[ReachEdge, ...]
    weak_edge: ReachEdge

    def __len__(self) -> int:
        return len(self.nodes)


class ReachabilityGraph:
    def __init__(self) -> None:
        self._nodes: Dict[int, ReachNode] = {}
        self._out: Dict[int, Dict[int, ReachEdge]] = {}

    # -- construction -------------------------------------------------------

    def add_node(self, obj_id: int, allocated_in_roi: bool, alloc_time: int,
                 first_access_time: Optional[int] = None) -> None:
        if obj_id in self._nodes:
            return
        self._nodes[obj_id] = ReachNode(
            obj_id, allocated_in_roi, alloc_time,
            first_access_time if first_access_time is not None else alloc_time,
        )
        self._out[obj_id] = {}

    def touch(self, obj_id: int, time: int) -> None:
        node = self._nodes.get(obj_id)
        if node is not None and time < node.first_access_time:
            node.first_access_time = time

    def add_edge(self, src: int, dst: int, src_offset: int, time: int,
                 loc: Optional[str] = None) -> None:
        if src not in self._nodes:
            self.add_node(src, False, time)
        if dst not in self._nodes:
            self.add_node(dst, False, time)
        # Re-storing over the same slot keeps the most recent reference,
        # mirroring how a pointer field holds one value at a time.
        self._out[src][dst] = ReachEdge(src, dst, src_offset, time, loc)

    def remove_node(self, obj_id: int) -> None:
        """Called when a PSE is freed: its references die with it."""
        self._nodes.pop(obj_id, None)
        self._out.pop(obj_id, None)
        for edges in self._out.values():
            edges.pop(obj_id, None)

    # -- queries -----------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(edges) for edges in self._out.values())

    def nodes(self) -> List[int]:
        return list(self._nodes)

    def edges(self) -> List[ReachEdge]:
        return [e for edges in self._out.values() for e in edges.values()]

    def successors(self, obj_id: int) -> List[int]:
        return list(self._out.get(obj_id, ()))

    def reachable_from(self, obj_id: int) -> Set[int]:
        seen: Set[int] = set()
        stack = [obj_id]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._out.get(node, ()))
        return seen

    # -- cycle analysis -------------------------------------------------------------

    def strongly_connected_components(self) -> List[List[int]]:
        """Tarjan's algorithm, iterative to survive deep graphs."""
        index_of: Dict[int, int] = {}
        low: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        sccs: List[List[int]] = []
        counter = [0]

        for root in self._nodes:
            if root in index_of:
                continue
            work: List[Tuple[int, int]] = [(root, 0)]
            while work:
                node, child_index = work.pop()
                if child_index == 0:
                    index_of[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                succs = [d for d in self._out.get(node, ()) if d in self._nodes]
                advanced = False
                for i in range(child_index, len(succs)):
                    succ = succs[i]
                    if succ not in index_of:
                        work.append((node, i + 1))
                        work.append((succ, 0))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index_of[succ])
                if advanced:
                    continue
                if low[node] == index_of[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    sccs.append(scc)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return sccs

    def find_cycles(self) -> List[CycleReport]:
        """All reference cycles, each with a weak-pointer suggestion."""
        reports: List[CycleReport] = []
        for scc in self.strongly_connected_components():
            members = set(scc)
            if len(scc) == 1:
                node = scc[0]
                if node not in self._out.get(node, ()):
                    continue
            cycle_edges = tuple(
                edge
                for src in scc
                for edge in self._out.get(src, {}).values()
                if edge.dst in members
            )
            oldest = min(
                scc, key=lambda n: (self._nodes[n].first_access_time, n)
            )
            into_oldest = [e for e in cycle_edges if e.dst == oldest]
            weak = into_oldest[0] if into_oldest else cycle_edges[0]
            reports.append(
                CycleReport(tuple(sorted(scc)), cycle_edges, weak)
            )
        reports.sort(key=lambda r: r.nodes)
        return reports
