"""Machine-readable degradation accounting for fail-soft profiling runs.

When an ROI exceeds its event budget, the runtime does not silently lose
events: the fallback is recorded as a :class:`DegradationRecord`, and a
run's :class:`DegradationReport` states exactly which ROIs are affected
and what the degraded PSEC still guarantees.

Soundness contract (documented in DESIGN.md): degradation may move PSEs
into *conservative* Sets — a read forces Input membership, a write forces
Output and Transfer (the §4.2 merge direction: Transfer beats Cloneable)
— but a PSE accessed past the budget is never silently absent from the
Sets.  Use-callstacks, by contrast, may be incomplete, and the record says
so.

Reports serialize deterministically: records are sorted by a stable key
and :meth:`DegradationReport.to_json` emits canonical JSON, so two runs
of the same program and budget produce byte-identical reports.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass
from typing import Dict, List, Set, Tuple

#: The action of an event-budget record: the ROI stops full tracking
#: and only classifies.
ACTION_CLASSIFY_ONLY = "classify-only"

#: Conservative set letters applied when an access event's ROI is over
#: budget: a read forces Input; a write forces Output plus Transfer
#: (never Cloneable — the §4.2 merge direction).
CONSERVATIVE_READ = "I"
CONSERVATIVE_WRITE = "OT"


@dataclass(frozen=True)
class DegradationRecord:
    """One fail-soft intervention during a profiling run."""

    #: What went wrong, e.g. ``event-budget``.
    kind: str
    #: ROIs whose PSECs the intervention touched.
    rois: Tuple[int, ...]
    #: Number of events the intervention covered.
    events: int
    #: What the runtime did about it, e.g. :data:`ACTION_CLASSIFY_ONLY`.
    action: str
    #: Whether the affected ROIs' Sets are still exact or merely
    #: conservative supersets.
    sets_complete: bool
    #: Whether the affected ROIs' Use-callstacks are still complete.
    use_callstacks_complete: bool
    detail: str = ""

    def sort_key(self) -> Tuple:
        return (self.kind, self.action, self.rois, self.events,
                self.detail)


class DegradationReport:
    """Thread-safe accumulator of degradation records for one run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[DegradationRecord] = []

    def add(self, record: DegradationRecord) -> None:
        with self._lock:
            self._records.append(record)

    @property
    def degraded(self) -> bool:
        """True if the run needed any fail-soft intervention."""
        return bool(self._records)

    def records(self) -> List[DegradationRecord]:
        with self._lock:
            return sorted(self._records, key=DegradationRecord.sort_key)

    def degraded_rois(self) -> Set[int]:
        rois: Set[int] = set()
        for record in self.records():
            rois.update(record.rois)
        return rois

    def reasons_for(self, roi_id: int) -> List[str]:
        return sorted({
            record.kind for record in self.records() if roi_id in record.rois
        })

    def sets_complete_for(self, roi_id: int) -> bool:
        return all(
            record.sets_complete
            for record in self.records() if roi_id in record.rois
        )

    def use_callstacks_complete_for(self, roi_id: int) -> bool:
        return all(
            record.use_callstacks_complete
            for record in self.records() if roi_id in record.rois
        )

    def to_dict(self) -> Dict:
        records = self.records()
        return {
            "degraded": self.degraded,
            "records": [asdict(record) for record in records],
            "rois": {
                str(roi_id): {
                    "reasons": self.reasons_for(roi_id),
                    "sets_complete": self.sets_complete_for(roi_id),
                    "use_callstacks_complete":
                        self.use_callstacks_complete_for(roi_id),
                }
                for roi_id in sorted(self.degraded_rois())
            },
        }

    def to_json(self) -> str:
        """Canonical JSON: key-sorted, fixed separators — byte-identical
        across runs with identical records."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def summary(self) -> str:
        records = self.records()
        if not records:
            return "no degradation"
        kinds: Dict[str, int] = {}
        for record in records:
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
        parts = [f"{kinds[k]}x {k}" for k in sorted(kinds)]
        return (f"{len(records)} intervention(s): " + ", ".join(parts)
                + f"; ROIs affected: {sorted(self.degraded_rois())}")
