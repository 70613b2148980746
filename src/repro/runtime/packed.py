"""Packed struct-of-arrays event blocks (the runtime's event encoding).

Each event is appended as one fixed-width *row* of plain ints into an
``array('q')``.  Everything non-integer — variables, source locations,
callstacks, active-ROI snapshots, classify letter strings — is interned
once into dense-id tables owned by the runtime, so the per-access work on
the program's critical path is a single C-level ``array.extend`` of a row
tuple.  A full block ships through the
:class:`repro.runtime.pipeline.BatchingPipeline` as the payload of an
ordinary :class:`Batch`, and the runtime folds it in a single tight
loop over the flat FSA transition table
(:data:`repro.runtime.fsa.FLAT_TRANSITIONS`).

Row layout (``ROW_STRIDE`` ints per row; unused fields are 0):

====================  =====================================================
kind code             fields used
====================  =====================================================
``KIND_READ/WRITE``   obj, offset, size, count, stride, site (interned
                      (var, loc) id), cs (callstack id), active (snapshot
                      id), time; ``aux`` = 0, ``last`` = time
``KIND_CLASSIFY``     obj, offset, size, count, stride, site, active,
                      time; ``aux`` = letters-string id
``KIND_ALLOC``        obj, size, active, time; ``aux`` = index into
                      ``side`` holding ``(kind, var, loc, callstack)``
``KIND_ESCAPE``       obj (=src obj), offset (=src offset), site
                      (loc-only site), active, time; ``aux`` = dst obj
``KIND_FREE``         obj, active, time
====================  =====================================================

Every event is one row.  ``PackedBlock.events`` counts events, and a
block is flushed every ``batch_size`` events, so batch boundaries follow
the event stream alone.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

#: Row kind codes.  READ/WRITE are 0/1 so the access fast path can use the
#: kind directly as the FSA write bit (event code = kind + 2*not-fresh).
KIND_READ = 0
KIND_WRITE = 1
KIND_CLASSIFY = 2
KIND_ALLOC = 3
KIND_ESCAPE = 4
KIND_FREE = 5

#: Field offsets within one row.
(F_KIND, F_OBJ, F_OFFSET, F_SIZE, F_COUNT, F_STRIDE, F_SITE, F_CS,
 F_ACTIVE, F_TIME, F_AUX, F_LAST) = range(12)
ROW_STRIDE = 12


class PackedBlock:
    """One batch worth of events as interleaved fixed-width integer rows."""

    __slots__ = ("data", "side", "events")

    def __init__(self) -> None:
        self.data = array("q")
        #: Non-integer payloads (alloc rows): (kind, var, loc, callstack).
        self.side: List[Tuple] = []
        #: Event count (set at flush time); ``len(block)`` reports it,
        #: so batch accounting counts events.
        self.events = 0

    def __len__(self) -> int:
        return self.events

    def rows(self) -> int:
        return len(self.data) // ROW_STRIDE

    def row(self, index: int) -> Tuple[int, ...]:
        base = index * ROW_STRIDE
        return tuple(self.data[base:base + ROW_STRIDE])


class InternTable:
    """Value → dense id, with the reverse list exposed for O(1) decode."""

    __slots__ = ("ids", "values")

    def __init__(self) -> None:
        self.ids: Dict = {}
        self.values: List = []

    def intern(self, value) -> int:
        ident = self.ids.get(value)
        if ident is None:
            ident = len(self.values)
            self.ids[value] = ident
            self.values.append(value)
        return ident

    def __len__(self) -> int:
        return len(self.values)
