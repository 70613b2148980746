"""The Active State Member Table (ASMT, §4.6).

The ASMT captures metadata about active PSEs: where and in which callstack
context they were allocated, their size, and their kind.  The abstraction
generators use it to report allocation sites for cloning advice and to name
heap PSEs in human-readable recommendations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.ir.instructions import SourceLoc, VarInfo


@dataclass(slots=True)
class AsmtEntry:
    """Metadata for one PSE allocation."""

    obj_id: int
    size: int
    kind: str  # "global" | "stack" | "heap"
    var: Optional[VarInfo]
    alloc_loc: Optional[SourceLoc]
    alloc_callstack: Tuple[str, ...]
    alloc_time: int
    freed: bool = False
    free_time: Optional[int] = None

    @property
    def display_name(self) -> str:
        if self.var is not None:
            return self.var.name
        site = str(self.alloc_loc) if self.alloc_loc else "?"
        return f"heap@{site}"


class Asmt:
    """obj_id-keyed table of active (and historical) PSE allocations."""

    def __init__(self) -> None:
        self._entries: Dict[int, AsmtEntry] = {}

    def register(self, entry: AsmtEntry) -> None:
        self._entries[entry.obj_id] = entry

    def mark_freed(self, obj_id: int, time: int) -> None:
        entry = self._entries.get(obj_id)
        if entry is not None:
            entry.freed = True
            entry.free_time = time

    def get(self, obj_id: int) -> Optional[AsmtEntry]:
        return self._entries.get(obj_id)

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Dict[int, AsmtEntry]:
        return dict(self._entries)
