"""Smart-pointer recommendation generation: reference cycles (§3.2, §5.2).

From the ROI's Reachability Graph, every reference cycle is reported with
its member allocations (site + callstack, resolved through the ASMT) and a
suggestion for which reference should become a ``weak_ptr`` — the edge into
the cycle member with the *oldest access time*, so the most senior object
drops out of the count first and the cycle cannot keep the group alive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.ir.module import Module, RoiInfo
from repro.runtime.asmt import Asmt
from repro.runtime.psec import Psec
from repro.runtime.reachability import CycleReport
from repro.abstractions.base import Recommendation


@dataclass
class CycleAdvice:
    """One detected reference cycle and how to break it."""

    members: List[str]
    member_callstacks: List[Tuple[str, ...]]
    weak_source: str
    weak_target: str
    weak_store_loc: Optional[str]
    raw: CycleReport = None  # type: ignore[assignment]

    def render(self) -> str:
        chain = " -> ".join(self.members + [self.members[0]])
        site = f" (stored at {self.weak_store_loc})" if self.weak_store_loc \
            else ""
        return (
            f"reference cycle: {chain}\n"
            f"    make the reference {self.weak_source} -> "
            f"{self.weak_target}{site} a weak pointer"
        )


@dataclass
class SmartPointerRecommendation(Recommendation):
    cycles: List[CycleAdvice] = field(default_factory=list)

    def render(self) -> str:
        if not self.cycles:
            return (f"ROI {self.roi.name}: no reference cycles detected; "
                    "smart pointers are safe to adopt")
        lines = [
            f"ROI {self.roi.name}: {len(self.cycles)} reference cycle(s) "
            "detected — adopting smart pointers as-is would leak:"
        ]
        lines.extend(f"  - {c.render()}" for c in self.cycles)
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def _name_of(obj_id: int, asmt: Asmt) -> str:
    meta = asmt.get(obj_id)
    if meta is None:
        return f"obj#{obj_id}"
    return f"{meta.display_name}#{obj_id}"


def generate_smart_pointers(
    module: Module,
    psec: Psec,
    asmt: Asmt,
    roi: RoiInfo,
) -> SmartPointerRecommendation:
    rec = SmartPointerRecommendation(roi=roi)
    for report in psec.reachability.find_cycles():
        members = [_name_of(obj, asmt) for obj in report.nodes]
        callstacks = []
        for obj in report.nodes:
            meta = asmt.get(obj)
            callstacks.append(meta.alloc_callstack if meta else ())
        rec.cycles.append(
            CycleAdvice(
                members=members,
                member_callstacks=callstacks,
                weak_source=_name_of(report.weak_edge.src, asmt),
                weak_target=_name_of(report.weak_edge.dst, asmt),
                weak_store_loc=report.weak_edge.loc,
                raw=report,
            )
        )
    return rec


def simulated_leak_with_cycles(
    psec: Psec, asmt: Asmt, broken_edges: Optional[List[Tuple[int, int]]] = None
) -> int:
    """Bytes a reference-counting collector would leak.

    Reference counting frees an object when no references point at it.  A
    cycle keeps all of its members (and everything reachable from them)
    alive forever.  ``broken_edges`` simulates turning those references
    into weak pointers; the §5.2 experiment compares the leak before and
    after breaking the CARMOT-reported edges.
    """
    broken = set(broken_edges or [])
    graph = psec.reachability
    keep: set = set()
    for report in graph.find_cycles():
        if any((edge.src, edge.dst) in broken for edge in report.edges):
            continue
        for member in report.nodes:
            keep |= graph.reachable_from(member)
    total = 0
    for obj_id in keep:
        meta = asmt.get(obj_id)
        if meta is not None and meta.kind == "heap":
            total += meta.size
    return total
