"""The CARMOT runtime engine and its VM hook adapter.

:class:`CarmotRuntime` owns the per-ROI PSECs, the ASMT and the
reachability graphs; :class:`CarmotHooks` is the
:class:`repro.vm.hooks.ExecutionHooks` implementation that instrumented
modules run with.  Every event folds into the PSECs at its hook, in
event order: a probed access steps the flat-table FSA inside the closure
made for its compile-time probe site, and classify, allocation, escape,
free and Pin events fold through the runtime as they arrive.  The hooks
charge main-thread costs (event pushes, callstack captures, Pin tracing)
per the cost model.  The FSA work is not charged to the program's
critical path: that is how the cost model represents the batching and
shadow workers of §4.6, while the fold itself runs on the producing
thread, so PSECs are bit-identical run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.instructions import AccessKind
from repro.ir.module import Module
from repro.resilience.degradation import (
    ACTION_CLASSIFY_ONLY,
    CONSERVATIVE_READ,
    CONSERVATIVE_WRITE,
    DegradationRecord,
    DegradationReport,
)
from repro.runtime import fsa
from repro.runtime.asmt import Asmt, AsmtEntry
from repro.runtime.config import RuntimeConfig
from repro.runtime.psec import MemoryBudgetExceeded, Psec, PseKey, PsecEntry
from repro.vm.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.vm.hooks import ExecutionHooks
from repro.vm.memory import MemoryObject

#: A probe site before its first access; it matches no address.
_NO_OBJECT = MemoryObject(0, 0, 0, "global", bytearray())


def _use_overflow(psec: Psec, max_use: int) -> None:
    raise MemoryBudgetExceeded(
        f"ROI {psec.roi_id}: more than {max_use} use-callstack records")


@dataclass
class RuntimeStats:
    """Counters used by tests and the experiment harnesses."""

    access_events: int = 0
    aggregated_events: int = 0
    classify_events: int = 0
    alloc_events: int = 0
    escape_events: int = 0
    pin_accesses: int = 0
    pin_attaches: int = 0
    callstack_captures: int = 0
    events_ignored_outside_roi: int = 0


class CarmotRuntime:
    """Builds one PSEC per ROI from the event stream."""

    def __init__(self, module: Module, config: Optional[RuntimeConfig] = None):
        self.module = module
        self.config = config or RuntimeConfig()
        self.asmt = Asmt()
        self.stats = RuntimeStats()
        self.psecs: Dict[int, Psec] = {}
        for roi_id, info in module.rois.items():
            self.psecs[roi_id] = Psec(
                roi_id=roi_id, roi_name=info.name, abstraction=info.abstraction
            )
        self._active: List[Tuple[int, int, int]] = []  # (roi, inv, epoch)
        self._invocations: Dict[int, int] = {roi_id: 0 for roi_id in module.rois}
        self._epochs: Dict[int, int] = {roi_id: 0 for roi_id in module.rois}
        self.degradation = DegradationReport()
        #: Per-ROI event budget state (only consulted when a budget is set,
        #: keeping the default hot path untouched).
        self._event_limit = self.config.resilience.max_events_per_roi
        self._event_budget = self._event_limit > 0
        self._roi_event_counts: Dict[int, int] = {
            roi_id: 0 for roi_id in module.rois
        }
        self._budget_tripped: Set[int] = set()
        #: While exactly one ROI is active and no event budget is set:
        #: its ``(psec, entries, invocation, epoch)``, which a probe
        #: site folds into inline; else None.
        self._solo: List[Optional[tuple]] = [None]
        #: PSE-key interning: one shared tuple instance per key, even
        #: when the key appears in several ROIs' PSECs.
        self._pse_keys: Dict[PseKey, PseKey] = {}

    # -- ROI lifecycle ------------------------------------------------------

    def roi_begin(self, roi_id: int) -> None:
        self._invocations[roi_id] += 1
        self._active.append(
            (roi_id, self._invocations[roi_id], self._epochs[roi_id])
        )
        self.psecs[roi_id].invocations += 1
        self._set_solo()

    def roi_reset(self, roi_id: int) -> None:
        """A new epoch: the ROI's loop is being entered afresh (§4.2)."""
        self._epochs[roi_id] += 1

    def roi_end(self, roi_id: int) -> None:
        for index in range(len(self._active) - 1, -1, -1):
            if self._active[index][0] == roi_id:
                del self._active[index]
                self._set_solo()
                return

    def _set_solo(self) -> None:
        solo = None
        if len(self._active) == 1 and not self._event_budget:
            roi_id, invocation, epoch = self._active[0]
            psec = self.psecs[roi_id]
            solo = (psec, psec.entries, invocation, epoch)
        self._solo[0] = solo

    @property
    def any_roi_active(self) -> bool:
        return bool(self._active)

    def finish(self) -> None:
        for roi_id in self.degradation.degraded_rois():
            psec = self.psecs.get(roi_id)
            if psec is None:
                continue
            psec.degraded = True
            psec.degradation_reasons = self.degradation.reasons_for(roi_id)
            psec.sets_exact = self.degradation.sets_complete_for(roi_id)
            psec.use_callstacks_complete = (
                self.degradation.use_callstacks_complete_for(roi_id)
            )
        for psec in self.psecs.values():
            psec.check_invariants()

    @property
    def degraded(self) -> bool:
        return self.degradation.degraded

    # -- the fold: events other than probed accesses --------------------------

    def _budget_note(self, active):
        """Per-ROI event budget: count the event against every active ROI
        and split the snapshot into (over-budget, under-budget) entries.
        Past the limit an ROI stops full FSA/use-callstack tracking and
        records conservative letters instead."""
        limit = self._event_limit
        over: List[Tuple[int, int, int]] = []
        under: List[Tuple[int, int, int]] = []
        for entry in active:
            roi_id = entry[0]
            count = self._roi_event_counts.get(roi_id, 0) + 1
            self._roi_event_counts[roi_id] = count
            if count > limit:
                over.append(entry)
                if roi_id not in self._budget_tripped:
                    self._budget_tripped.add(roi_id)
                    self.degradation.add(DegradationRecord(
                        kind="event-budget", rois=(roi_id,), events=0,
                        action=ACTION_CLASSIFY_ONLY,
                        sets_complete=False, use_callstacks_complete=False,
                        detail=(f"ROI {roi_id} exceeded {limit} events; "
                                "switched to conservative classification"),
                    ))
            else:
                under.append(entry)
        return over, under

    def _keys(self, var, obj_id, offset, size, count, stride):
        """The interned PSE keys one event touches: the variable's slot,
        or ``count`` element granules ``stride or size`` bytes apart."""
        intern_key = self._pse_keys.setdefault
        if var is not None and count == 1:
            return (intern_key(("var", obj_id), ("var", obj_id)),)
        stride = stride or size
        return tuple(
            intern_key(key, key) for key in (
                ("mem", obj_id, offset + j * stride, size)
                for j in range(count)
            )
        )

    def classify(self, states, obj_id, offset, size, count, stride, var,
                 active, time) -> None:
        """Force ``states`` on the PSEs for every ROI in ``active``
        (``None``: the active ROIs; an explicit tuple is the hoisted-probe
        case, ``roi_id`` binding)."""
        if active is None:
            active = self._active
        if self._event_budget and active:
            self._budget_note(active)
        psecs = self.psecs
        for key in self._keys(var, obj_id, offset, size, count, stride):
            for roi_id, _, _ in active:
                psecs[roi_id].force_classification(key, var, states, time)

    def alloc(self, obj: MemoryObject, time: int) -> None:
        active = self._active
        if self._event_budget and active:
            self._budget_note(active)
        self.asmt.register(AsmtEntry(
            obj_id=obj.obj_id, size=obj.size, kind=obj.kind, var=obj.var,
            alloc_loc=obj.alloc_loc, alloc_callstack=obj.alloc_callstack,
            alloc_time=time,
        ))
        if self.config.policy.track_reachability:
            for roi_id, _, _ in active:
                psec = self.psecs[roi_id]
                psec.allocated_in_roi.add(obj.obj_id)
                psec.reachability.add_node(obj.obj_id, True, time)

    def escape(self, src_obj, src_offset, dst_obj, loc, time) -> None:
        active = self._active
        if self._event_budget and active:
            self._budget_note(active)
        loc_repr = str(loc) if loc else None
        for roi_id, _, _ in active:
            self.psecs[roi_id].reachability.add_edge(
                src_obj, dst_obj, src_offset, time, loc_repr,
            )

    def free(self, obj_id: int, time: int) -> None:
        if self._event_budget and self._active:
            self._budget_note(self._active)
        self.asmt.mark_freed(obj_id, time)


class CarmotHooks(ExecutionHooks):
    """VM hook adapter: folds events, charges main-thread costs.

    The contract with the VM: a ``probe.access`` site calls the closure
    :meth:`probe_site` made for it with the live instruction count, which
    is the access time, and the live cost, and spills neither: if the
    closure raises (the use-record budget), the generated frame's trap
    handler leaves the counters of the probe's line in ``self.vm``.
    Every other hook fires with the VM's counters spilled into
    ``self.vm`` (these hooks read ``vm.instructions`` and ``vm.cost``,
    and helpers read ``vm.memory`` / ``vm.call_stack``), and may mutate
    ``vm.cost``, which the VM reloads after the call.  Identical hook
    sequences with identical arguments give byte-for-byte equal
    profiles.  One adapter serves one run, like its runtime: each site's
    closure holds that run's memory objects.
    """

    def __init__(
        self,
        runtime: CarmotRuntime,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.runtime = runtime
        self.cm = cost_model
        self.vm = None  # set by the VM
        #: Per-frame flags for callstack clustering (opt 7): has the current
        #: function invocation already captured its callstack?
        self._frame_captured: List[bool] = [False]
        self._asmt_entries = runtime.asmt._entries
        self._fold = self._bind_fold()
        self._site_constants = self._bind_site_constants()
        #: :meth:`on_probe_access`'s closures, by (kind, size, stride,
        #: loc, id(var)); each closure holds its var, so the id stays
        #: unique.
        self._adapted: Dict[tuple, object] = {}

    # -- helpers ---------------------------------------------------------------

    def _object_for(self, addr: int) -> Optional[MemoryObject]:
        obj = self.vm.memory.try_object_at(addr)
        if obj is not None and obj.obj_id not in self._asmt_entries:
            # Globals (and anything else allocated before hooks attach)
            # enter the ASMT lazily on first observation.
            self.runtime.asmt.register(
                AsmtEntry(
                    obj_id=obj.obj_id,
                    size=obj.size,
                    kind=obj.kind,
                    var=obj.var,
                    alloc_loc=obj.alloc_loc,
                    alloc_callstack=obj.alloc_callstack,
                    alloc_time=obj.alloc_time,
                )
            )
        return obj

    def _callstack_cost(self, depth: int) -> int:
        return (self.cm.callstack_capture_base
                + self.cm.callstack_capture_per_frame * depth)

    # -- ROI markers ----------------------------------------------------------

    def on_roi_begin(self, roi_id: int) -> int:
        self.runtime.roi_begin(roi_id)
        return self.cm.probe_push

    def on_roi_end(self, roi_id: int) -> int:
        self.runtime.roi_end(roi_id)
        return self.cm.probe_push

    def on_roi_reset(self, roi_id: int) -> int:
        self.runtime.roi_reset(roi_id)
        return self.cm.probe_push

    # -- access probes -----------------------------------------------------------

    def _bind_fold(self):
        """The fold of one access into every active ROI's PSEC, bound
        once on this run's config: ``fold(is_write, keys, var, use,
        time)`` steps the FSA of each interned key in each ROI, after
        counting the event against the ROIs' event budgets.
        ``use`` is the access's ``(loc, callstack)`` record, None when
        the run tracks no use-callstacks.  A probe site's single-ROI path
        is this loop's body for one key and one ROI."""
        runtime = self.runtime
        active, psecs = runtime._active, runtime.psecs
        flat, forced_join = fsa.FLAT_TRANSITIONS, fsa.FORCED_JOIN
        max_use = runtime.config.max_use_records
        event_budget, budget_note = runtime._event_budget, runtime._budget_note

        def fold(is_write, keys, var, use, time) -> None:
            rois = active
            if event_budget:
                # Past its event budget an ROI gets conservative letters
                # instead of an FSA step.
                over, rois = budget_note(active)
                if over:
                    letters = (CONSERVATIVE_WRITE if is_write
                               else CONSERVATIVE_READ)
                    for key in keys:
                        for roi_id, _, _ in over:
                            psecs[roi_id].force_classification(
                                key, var, letters, time)
            for key in keys:
                for roi_id, invocation, epoch in rois:
                    psec = psecs[roi_id]
                    entries = psec.entries
                    entry = entries.get(key)
                    if entry is None:
                        entry = entries[key] = PsecEntry(key, var)
                    elif var is not None and entry.var is None:
                        entry.var = var
                    if epoch != entry.last_epoch:
                        # A miss is a letter outside CIOT (a loaded IR
                        # probe.classify is not validated).
                        forced = forced_join[entry.state_code].get(
                            entry.forced)
                        entry.forced = (fsa.join_forced(
                            entry.state_code, entry.forced)
                            if forced is None else forced)
                        entry.state_code = 0
                        entry.last_invocation = -1
                        entry.last_epoch = epoch
                    event_code = (
                        is_write if invocation != entry.last_invocation
                        else is_write + 2
                    )
                    state_code = flat[entry.state_code * 4 + event_code]
                    if state_code < 0:
                        fsa.step_code(entry.state_code, event_code)
                    entry.state_code = state_code
                    if is_write:
                        entry.write_seen = True
                    entry.access_count += 1
                    entry.last_invocation = invocation
                    if entry.first_time is None:
                        entry.first_time = time
                    entry.last_time = time
                    psec.total_accesses += 1
                    # ``last_use`` is always in ``uses``; without use
                    # tracking both it and ``use`` stay None.
                    if use is not entry.last_use:
                        if use not in entry.uses:
                            entry.uses.add(use)
                            psec.use_records += 1
                            if max_use and psec.use_records > max_use:
                                _use_overflow(psec, max_use)
                        entry.last_use = use
        return fold

    def _bind_site_constants(self) -> Optional[tuple]:
        """What every probe site of this run binds, computed once so
        that making a site stays cheap; None when the run tracks no
        Sets.  Nothing here refers back to the hooks: the per-site
        closures are held by compiled code, so the hooks and their
        runtime are freed by reference counting when the run ends."""
        runtime, cm, config = self.runtime, self.cm, self.runtime.config
        if not config.policy.track_sets:
            return None
        track_uses = config.policy.track_use_callstacks
        use_cost = 0
        if track_uses:
            use_cost = (cm.use_callstack_shadow if config.codesigned
                        else cm.use_callstack_walk)
        inline = 0 if config.codesigned else cm.inline_process
        # The flat transition table's column of each event code.
        steps = [tuple(fsa.FLAT_TRANSITIONS[code::4]) for code in range(4)]
        return (runtime._solo, cm.probe_push + use_cost + inline, use_cost,
                inline, track_uses, runtime._keys,
                runtime._pse_keys.setdefault, steps, config.max_use_records)

    def probe_site(self, kind, size, var, stride, loc):
        """The access probe of one compiled ``probe.access`` site (the
        myia ``do_emit_events`` pattern, taken down to the site).

        Returns ``probe(ic, cost, addr, callstack, count=1)``: it
        resolves the object, folds the access into the PSECs at time
        ``ic`` and returns the probe's charge (``cost`` is for hooks
        that spill it; this fold has no use for it).  The site's
        operands, its ``str(loc)`` and the last object it resolved are
        bound in.  An access of one key while one ROI is active, and no
        event budget is set, folds inline; every other access goes
        through :meth:`_bind_fold`'s loop.
        """
        runtime, cm = self.runtime, self.cm
        stats, active = runtime.stats, runtime._active
        push, aggregate = cm.probe_push, cm.aggregate_probe
        if self._site_constants is None:
            # Without Sets tracking no address resolves: every probe is a
            # push.
            def probe(ic, cost, addr, cs, count=1) -> int:
                if not active:
                    stats.events_ignored_outside_roi += 1
                return aggregate if count > 1 else push
            return probe
        (solo, single, use_cost, inline, track_uses, keys_for, intern_key,
         steps, max_use) = self._site_constants
        object_for, fold = self._object_for, self._fold
        forced_join = fsa.FORCED_JOIN
        is_write = 1 if kind is AccessKind.WRITE else 0
        # The site's next states after a first access in an invocation
        # and after a repeat.
        first, repeat = steps[is_write], steps[is_write + 2]
        loc_str = str(loc) if loc else "?"
        # The last object the site resolved, as the address range
        # ``[lo, hi)`` ``Memory.try_object_at`` tests: a loop body
        # touching two arrays in alternation evicts ``Memory``'s single
        # last-hit object on every probe, but not these.
        obj, oid, lo, hi, var_key = _NO_OBJECT, 0, 0, 0, None
        # One use record per distinct callstack: a generated frame builds
        # its ``cs`` once per call, so an identity test on it skips this
        # table on all but a call's first access.
        uses: Dict[Tuple[str, ...], Tuple] = {}
        last_cs = use = None

        def probe(ic, cost, addr, cs, count=1) -> int:
            nonlocal obj, oid, lo, hi, var_key, last_cs, use
            if not active:
                stats.events_ignored_outside_roi += 1
                return aggregate if count > 1 else push
            if not lo <= addr < hi or obj.freed:
                found = object_for(addr)
                if found is None:
                    return aggregate if count > 1 else push
                obj, oid, lo = found, found.obj_id, found.base
                hi = lo + found.size
                if var is not None:
                    var_key = intern_key(("var", oid), ("var", oid))
            stats.access_events += 1
            if track_uses and cs is not last_cs:
                last_cs = cs
                use = uses.get(cs)
                if use is None:
                    use = uses[cs] = (loc_str, cs)
            one = solo[0]
            if count != 1 or one is None:
                if count > 1:
                    stats.aggregated_events += 1
                fold(is_write, keys_for(var, oid, addr - lo, size, count,
                                        stride),
                     var, use, ic)
                if count > 1:
                    return aggregate + use_cost + inline * count
                return single
            psec, entries, invocation, epoch = one
            if var_key is None:
                key = ("mem", oid, addr - lo, size)
                entry = entries.get(key)
                if entry is None:
                    # Entries are never deleted: intern on a miss only.
                    key = intern_key(key, key)
                    entry = entries[key] = PsecEntry(key, var)
            else:
                entry = entries.get(var_key)
                if entry is None:
                    entry = entries[var_key] = PsecEntry(var_key, var)
                elif entry.var is None:
                    entry.var = var
            if epoch != entry.last_epoch:
                forced = forced_join[entry.state_code].get(entry.forced)
                entry.forced = (fsa.join_forced(
                    entry.state_code, entry.forced)
                    if forced is None else forced)
                entry.state_code = 0
                entry.last_invocation = -1
                entry.last_epoch = epoch
            if invocation != entry.last_invocation:
                state_code = first[entry.state_code]
            else:
                state_code = repeat[entry.state_code]
                if state_code < 0:
                    fsa.step_code(entry.state_code, is_write + 2)
            entry.state_code = state_code
            if is_write:
                entry.write_seen = True
            entry.access_count += 1
            entry.last_invocation = invocation
            if entry.first_time is None:
                entry.first_time = ic
            entry.last_time = ic
            psec.total_accesses += 1
            if use is not entry.last_use:
                if use not in entry.uses:
                    entry.uses.add(use)
                    psec.use_records += 1
                    if max_use and psec.use_records > max_use:
                        _use_overflow(psec, max_use)
                entry.last_use = use
            return single
        return probe

    def on_probe_access(self, kind, addr, size, var, count, stride, loc,
                        callstack) -> int:
        """One access through the per-site closures, for callers with no
        sites of their own (the tree-walk oracle engine, unit tests):
        each distinct site operand tuple gets its closure, fed the
        counters in ``self.vm``."""
        key = (kind, size, stride, loc, id(var))
        site = self._adapted.get(key)
        if site is None:
            site = self._adapted[key] = self.probe_site(
                kind, size, var, stride, loc)
        vm = self.vm
        return site(vm.instructions, vm.cost, addr, callstack, count)

    def on_probe_classify(self, states, addr, size, var, count, stride,
                          loc, roi_id=None) -> int:
        runtime = self.runtime
        if roi_id is not None:
            active = ((roi_id, 0, 0),)
        elif runtime.any_roi_active:
            active = None
        else:
            return self.cm.classify_probe
        if runtime.config.policy.track_sets:
            obj = self._object_for(addr)
            if obj is not None:
                runtime.stats.classify_events += 1
                runtime.classify(
                    states, obj.obj_id, addr - obj.base, size, count,
                    stride, var, active, self.vm.instructions,
                )
                if not runtime.config.codesigned:
                    return (self.cm.classify_probe
                            + self.cm.inline_process * max(1, count))
        return self.cm.classify_probe

    def on_probe_escape(self, value_addr, dest_addr, loc) -> int:
        runtime = self.runtime
        if not runtime.any_roi_active:
            return self.cm.escape_event
        if runtime.config.policy.track_reachability and value_addr != 0:
            dst = self._object_for(value_addr)
            src = self._object_for(dest_addr)
            if dst is not None and src is not None and src is not dst:
                runtime.stats.escape_events += 1
                runtime.escape(
                    src.obj_id, dest_addr - src.base, dst.obj_id, loc,
                    self.vm.instructions,
                )
                if not runtime.config.codesigned:
                    return self.cm.escape_event + self.cm.inline_process
        return self.cm.escape_event

    # -- allocations ---------------------------------------------------------------

    def on_alloc(self, obj: MemoryObject) -> int:
        runtime = self.runtime
        cost = self.cm.alloc_event
        if runtime.config.callstack_clustering:
            # Opt 7: one capture per function invocation, shared by all of
            # its allocations.
            if not self._frame_captured[-1]:
                self._frame_captured[-1] = True
                cost += self._callstack_cost(len(obj.alloc_callstack))
                runtime.stats.callstack_captures += 1
        else:
            cost += self._callstack_cost(len(obj.alloc_callstack))
            runtime.stats.callstack_captures += 1
        runtime.stats.alloc_events += 1
        runtime.alloc(obj, self.vm.instructions)
        if not runtime.config.codesigned:
            cost += self.cm.inline_process
        return cost

    def on_free(self, obj: MemoryObject) -> int:
        self.runtime.free(obj.obj_id, self.vm.instructions)
        return self.cm.alloc_event

    def on_call_enter(self, function_name: str, instrumented: bool) -> int:
        self._frame_captured.append(False)
        config = self.runtime.config
        if (config.codesigned
                and config.policy.track_use_callstacks
                and instrumented):
            return self.cm.shadow_stack_maintain
        return 0

    def on_call_exit(self, function_name: str) -> int:
        if len(self._frame_captured) > 1:
            self._frame_captured.pop()
        config = self.runtime.config
        if config.codesigned and config.policy.track_use_callstacks:
            return self.cm.shadow_stack_maintain
        return 0

    # -- Pin (§4.5) ---------------------------------------------------------------------

    def wants_pin(self) -> bool:
        return (self.runtime.config.policy.needs_pin
                and self.runtime.any_roi_active)

    def on_pin_attach(self) -> int:
        self.runtime.stats.pin_attaches += 1
        return self.cm.pin_attach

    def on_pin_access(self, kind, addr, size) -> int:
        runtime = self.runtime
        granules = max(1, math.ceil(size / 8))
        runtime.stats.pin_accesses += granules
        if runtime.any_roi_active and runtime.config.policy.track_sets:
            obj = self._object_for(addr)
            if obj is not None:
                self._pin_fold(kind, obj, addr - obj.base, min(size, 8),
                               granules)
        cost = self.cm.pin_per_access * granules
        if not runtime.config.codesigned:
            cost += self.cm.inline_process * granules
        return cost

    def _pin_fold(self, kind, obj, offset, size, count) -> None:
        """Pin's fold: ``count`` granules of ``size`` bytes, 8 bytes
        apart, with no site (the use record's loc is ``?``) and no probe
        counters: :meth:`on_pin_access` counts and charges them."""
        vm, runtime = self.vm, self.runtime
        use = (("?", tuple(vm.call_stack))
               if runtime.config.policy.track_use_callstacks else None)
        self._fold(kind is AccessKind.WRITE,
                   runtime._keys(None, obj.obj_id, offset, size, count, 8),
                   None, use, vm.instructions)

    def finish(self) -> None:
        self.runtime.finish()
