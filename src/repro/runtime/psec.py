"""PSEC: the per-ROI characterization built by the runtime (§3.1).

A :class:`Psec` holds, for one ROI:

- the four **Sets** (Input/Output/Cloneable/Transfer), as the terminal FSA
  state of each PSE plus any compile-time-forced letters (opt 3);
- **Use-callstacks**: the distinct (source location, callstack) contexts in
  which each PSE was used inside the ROI;
- the **Reachability Graph** of pointer escapes between PSEs.

PSE keys
--------
``("var", obj_id)``
    a source variable (local/param/global), one FSA for the whole slot;
``("mem", obj_id, offset, size)``
    one element-granule of a memory object — the per-element granularity
    that lets PSEC report "only ``a[1]`` carries the RAW dependence" where
    dependence-graph tools must give up (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import RuntimeToolError
from repro.ir.instructions import SourceLoc, VarInfo
from repro.runtime import fsa
from repro.runtime.reachability import ReachabilityGraph

PseKey = Tuple  # ("var", obj_id) | ("mem", obj_id, offset, size)

SET_NAMES = ("input", "output", "cloneable", "transfer")
_LETTER_BY_SET = {"input": "I", "output": "O", "cloneable": "C", "transfer": "T"}


class PsecEntry:
    """Per-PSE record inside one ROI's PSEC.

    The FSA state is held as a dense integer code (index into
    :data:`fsa.STATES`) so the hot recording path is a flat-table lookup;
    the :attr:`state` property preserves the enum-valued view.
    """

    __slots__ = (
        "key", "var", "state_code", "forced", "last_invocation",
        "first_time", "last_time", "uses", "write_seen", "access_count",
        "last_epoch",
    )

    def __init__(
        self,
        key: PseKey,
        var: Optional[VarInfo] = None,
        state: fsa.State = fsa.State.EPS,
        forced: str = "",
    ) -> None:
        self.key = key
        self.var = var
        self.state_code: int = fsa.STATE_CODES[state]
        self.forced = forced
        self.last_invocation = -1
        self.first_time: Optional[int] = None
        self.last_time: Optional[int] = None
        self.uses: Set[Tuple[str, Tuple[str, ...]]] = set()
        self.write_seen = False
        self.access_count = 0
        self.last_epoch = 0

    @property
    def state(self) -> fsa.State:
        return fsa.STATES[self.state_code]

    @state.setter
    def state(self, value: fsa.State) -> None:
        self.state_code = fsa.STATE_CODES[value]

    @property
    def letters(self) -> FrozenSet[str]:
        letters = fsa.FORCED_LETTERS[self.state_code].get(self.forced)
        if letters is None:
            # A spelling outside the table: unsorted, or a letter outside
            # CIOT (a loaded IR probe.classify is not validated).
            return fsa.force_states(self.state, self.forced).sets
        return letters

    def record(self, is_write: bool, invocation: int, time: int,
               epoch: int = 0) -> None:
        if epoch != self.last_epoch:
            # New loop execution: commit the previous epoch's letters (set
            # union with the C/T rule of §4.2) and restart the FSA.
            self.forced = fsa.join_forced(self.state_code, self.forced)
            self.state_code = 0  # fsa.State.EPS
            self.last_invocation = -1
            self.last_epoch = epoch
        fresh = invocation != self.last_invocation
        if is_write:
            event = fsa.WF if fresh else fsa.WN
            self.write_seen = True
        else:
            event = fsa.RF if fresh else fsa.RN
        self.state_code = fsa.step_code(self.state_code, event)
        self.access_count += 1
        self.last_invocation = invocation
        if self.first_time is None:
            self.first_time = time
        self.last_time = time


class MemoryBudgetExceeded(RuntimeToolError):
    """The profiler's bookkeeping outgrew its memory budget.

    The naive configuration hits this on use-callstack-heavy workloads; the
    paper marks such runs with "*" in Figure 7/10/11.
    """


@dataclass
class Psec:
    """The PSEC of one ROI."""

    roi_id: int
    roi_name: str = ""
    abstraction: Optional[str] = None
    invocations: int = 0
    entries: Dict[PseKey, PsecEntry] = field(default_factory=dict)
    reachability: ReachabilityGraph = field(default_factory=ReachabilityGraph)
    #: obj_ids allocated while this ROI was active.
    allocated_in_roi: Set[int] = field(default_factory=set)
    use_records: int = 0
    total_accesses: int = 0
    #: Set when the run needed fail-soft intervention for this ROI (an
    #: event-budget trip).  A degraded PSEC's Sets are
    #: conservative supersets — a PSE may move to Transfer instead of
    #: Cloneable, or gain Input/Output letters, but is never silently
    #: dropped; Use-callstacks may be incomplete (see
    #: ``use_callstacks_complete``).
    degraded: bool = False
    #: Machine-readable reasons (record kinds) behind ``degraded``.
    degradation_reasons: List[str] = field(default_factory=list)
    #: False when degradation lost use-callstack context for this ROI.
    use_callstacks_complete: bool = True
    #: False when the Sets are conservative supersets rather than exact.
    sets_exact: bool = True

    def entry(self, key: PseKey, var: Optional[VarInfo] = None) -> PsecEntry:
        existing = self.entries.get(key)
        if existing is None:
            existing = PsecEntry(key=key, var=var)
            self.entries[key] = existing
        elif var is not None and existing.var is None:
            existing.var = var
        return existing

    def record_access(
        self,
        key: PseKey,
        var: Optional[VarInfo],
        is_write: bool,
        invocation: int,
        time: int,
        loc: Optional[SourceLoc],
        callstack: Tuple[str, ...],
        track_uses: bool,
        max_use_records: int = 0,
        epoch: int = 0,
    ) -> None:
        entry = self.entry(key, var)
        entry.record(is_write, invocation, time, epoch)
        self.total_accesses += 1
        if track_uses:
            record = (str(loc) if loc else "?", callstack)
            if record not in entry.uses:
                entry.uses.add(record)
                self.use_records += 1
                if max_use_records and self.use_records > max_use_records:
                    raise MemoryBudgetExceeded(
                        f"ROI {self.roi_id}: more than {max_use_records} "
                        "use-callstack records"
                    )

    def force_classification(self, key: PseKey, var: Optional[VarInfo],
                             letters: str, time: int) -> None:
        entry = self.entry(key, var)
        entry.forced = "".join(sorted(set(entry.forced) | set(letters)))
        if entry.first_time is None:
            entry.first_time = time
        # Max, not last-assignment: FSA folds and event-budget forcing
        # both stamp the same entry, and ``last_time`` must never move
        # backwards whichever of them ran last.
        if entry.last_time is None or time > entry.last_time:
            entry.last_time = time

    # -- classification output ----------------------------------------------

    def sets(self) -> Dict[str, List[PseKey]]:
        """The four Sets of §3.1, as sorted PSE-key lists."""
        result: Dict[str, List[PseKey]] = {name: [] for name in SET_NAMES}
        for key, entry in self.entries.items():
            letters = entry.letters
            for name in SET_NAMES:
                if _LETTER_BY_SET[name] in letters:
                    result[name].append(key)
        for name in SET_NAMES:
            result[name].sort(key=_key_sort)
        return result

    def classification_of(self, key: PseKey) -> FrozenSet[str]:
        entry = self.entries.get(key)
        if entry is None:
            return frozenset()
        return entry.letters

    def check_invariants(self) -> None:
        """C∩T=∅ must hold for every PSE (§4.1)."""
        for key, entry in self.entries.items():
            letters = entry.letters
            if "C" in letters and "T" in letters:
                raise RuntimeToolError(
                    f"PSE {key}: Cloneable and Transfer are mutually exclusive"
                )


def merge_psecs(first: Psec, second: Psec) -> Psec:
    """Combine PSECs of the same ROI from different runs (§4.2).

    Set union per PSE, except Cloneable ⊔ Transfer → Transfer (the
    conservative rule: if any run observed a cross-invocation RAW, the PSE
    must be treated as Transfer).
    """
    if first.roi_id != second.roi_id:
        raise RuntimeToolError(
            f"cannot merge PSECs of different ROIs "
            f"({first.roi_id} vs {second.roi_id})"
        )
    merged = Psec(first.roi_id, first.roi_name, first.abstraction)
    merged.invocations = first.invocations + second.invocations
    for source in (first, second):
        for key, entry in source.entries.items():
            target = merged.entry(key, entry.var)
            letters = set(target.forced) | set(entry.letters)
            if "T" in letters:
                letters.discard("C")
            target.forced = "".join(sorted(letters))
            target.uses |= entry.uses
            if entry.first_time is not None:
                target.first_time = (
                    entry.first_time
                    if target.first_time is None
                    else min(target.first_time, entry.first_time)
                )
        merged.allocated_in_roi |= source.allocated_in_roi
        for edge in source.reachability.edges():
            merged.reachability.add_edge(
                edge.src, edge.dst, edge.src_offset, edge.time, edge.loc
            )
    return merged


def _key_sort(key: PseKey):
    return tuple(str(part) for part in key)
