"""The CARMOT runtime engine and its VM hook adapter.

:class:`CarmotRuntime` owns the per-ROI PSECs, the ASMT and the
reachability graphs; :class:`CarmotHooks` is the
:class:`repro.vm.hooks.ExecutionHooks` implementation that instrumented
modules run with.  Every event folds into the PSECs at its hook, in
event order: a probed access steps the flat-table FSA inside the bound
``on_probe_access`` closure, and classify, allocation, escape, free and
Pin events fold through the runtime as they arrive.  The hooks charge
main-thread costs (event pushes, callstack captures, Pin tracing) per the
cost model.  The FSA work is not charged to the program's critical path:
that is how the cost model represents the batching and shadow workers of
§4.6, while the fold itself runs on the producing thread, so PSECs are
bit-identical run to run.
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
        #: PSE-key interning: one shared tuple instance per key, even
        #: when the key appears in several ROIs' PSECs.
        self._pse_keys: Dict[PseKey, PseKey] = {}
        self._var_keys: Dict[int, PseKey] = {}
        #: site id → (var, loc, str(loc)); ids 0..n-1 match the
        #: compile-time ``module.site_table`` so probes can carry them.
        self._site_values: List[Tuple] = []
        self._site_ids: Dict[Tuple[int, int], int] = {}
        for var, loc in getattr(module, "site_table", ()) or ():
            self._register_site(var, loc)

    # -- ROI lifecycle ------------------------------------------------------

    def roi_begin(self, roi_id: int) -> None:
        self._invocations[roi_id] += 1
        self._active.append(
            (roi_id, self._invocations[roi_id], self._epochs[roi_id])
        )
        self.psecs[roi_id].invocations += 1

    def roi_reset(self, roi_id: int) -> None:
        """A new epoch: the ROI's loop is being entered afresh (§4.2)."""
        self._epochs[roi_id] += 1

    def roi_end(self, roi_id: int) -> None:
        for index in range(len(self._active) - 1, -1, -1):
            if self._active[index][0] == roi_id:
                del self._active[index]
                return

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
                        batch_seq=-1, kind="event-budget", rois=(roi_id,),
                        events=0, action=ACTION_CLASSIFY_ONLY,
                        sets_complete=False, use_callstacks_complete=False,
                        detail=(f"ROI {roi_id} exceeded {limit} events; "
                                "switched to conservative classification"),
                    ))
            else:
                under.append(entry)
        return over, under

    def _register_site(self, var, loc) -> int:
        site_id = len(self._site_values)
        self._site_values.append((var, loc, str(loc) if loc else "?"))
        self._site_ids[(id(var), id(loc))] = site_id
        return site_id

    def _site_for(self, var, loc) -> int:
        """Runtime fallback for probes without a compile-time site id
        (direct ``instrument_module`` use, Pin accesses)."""
        site_id = self._site_ids.get((id(var), id(loc)))
        if site_id is None:
            site_id = self._register_site(var, loc)
        return site_id

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

    The contract with the VM: before any hook fires, the VM must have
    spilled its live instruction/cost counters into ``self.vm`` (this
    adapter reads ``vm.cost``, and helpers read ``vm.memory`` /
    ``vm.call_stack``), and hooks may mutate ``vm.cost``, which the VM
    reloads after the call.  Identical hook sequences with identical
    arguments give byte-for-byte equal profiles.  One adapter serves one
    run, like its runtime: the probe's per-site cache holds that run's
    memory objects.
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
        self.on_probe_access = self._bind_probe_access()
        self._pin_access = self._bind_probe_access(probe=False)

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

    def _bind_probe_access(self, probe: bool = True):
        """``on_probe_access`` specialised on this run's config, bound once
        so a probe pays only for what the run switched on (the myia
        ``do_emit_events`` pattern).  The returned closure resolves the
        object, charges the probe, and folds the access into the PSECs.

        ``probe=False`` binds the same fold for Pin accesses, which
        ``on_pin_access`` counts and charges itself: their probe counters
        go to a scratch :class:`RuntimeStats`.
        """
        runtime, cm, config = self.runtime, self.cm, self.runtime.config
        stats = runtime.stats if probe else RuntimeStats()
        active = runtime._active
        push, aggregate = cm.probe_push, cm.aggregate_probe
        if not config.policy.track_sets:
            # Without Sets tracking no address resolves: every probe is a
            # push.
            def on_probe_access(kind, addr, size, var, count, stride, loc,
                                callstack, site_id=None) -> int:
                if not active:
                    stats.events_ignored_outside_roi += 1
                return aggregate if count > 1 else push
            return on_probe_access
        track_uses = config.policy.track_use_callstacks
        use_cost = 0
        if track_uses:
            use_cost = (cm.use_callstack_shadow if config.shadow_callstacks
                        else cm.use_callstack_walk)
        inline = cm.inline_process if config.inline_processing else 0
        single = push + use_cost + inline
        hooks, object_for, write = self, self._object_for, AccessKind.WRITE
        site_for, site_values = runtime._site_for, runtime._site_values
        # The last object each compile-time site resolved: a loop body
        # touching two arrays in alternation evicts ``Memory``'s single
        # last-hit object on every probe, but not these.
        site_last = [MemoryObject(0, 0, 0, "global", bytearray())] * len(
            site_values)
        psecs, var_keys = runtime.psecs, runtime._var_keys
        intern_key, keys_for = runtime._pse_keys.setdefault, runtime._keys
        flat, forced_join = fsa.FLAT_TRANSITIONS, fsa.FORCED_JOIN
        max_use = config.max_use_records
        event_budget, budget_note = runtime._event_budget, runtime._budget_note
        use = None

        def on_probe_access(kind, addr, size, var, count, stride, loc,
                            callstack, site_id=None) -> int:
            if not active:
                stats.events_ignored_outside_roi += 1
                return aggregate if count > 1 else push
            vm = hooks.vm
            if site_id is None:
                obj = object_for(addr)
                if obj is None:
                    return aggregate if count > 1 else push
                site_id = site_for(var, loc)
            else:
                # ``Memory.try_object_at``'s check, against this site's
                # last object.
                obj = site_last[site_id]
                base = obj.base
                if not (base <= addr < base + obj.size and not obj.freed):
                    obj = object_for(addr)
                    if obj is None:
                        return aggregate if count > 1 else push
                    site_last[site_id] = obj
            stats.access_events += 1
            if count > 1:
                stats.aggregated_events += 1
                cost = aggregate + use_cost + inline * count
            else:
                cost = single
            obj_id = obj.obj_id
            offset = addr - obj.base
            var, _, loc_str = site_values[site_id]
            time = vm.instructions
            if count == 1:
                if var is not None:
                    key = var_keys.get(obj_id)
                    if key is None:
                        key = intern_key(("var", obj_id), ("var", obj_id))
                        var_keys[obj_id] = key
                else:
                    key = ("mem", obj_id, offset, size)
                    key = intern_key(key, key)
                keys = (key,)
            else:
                keys = keys_for(var, obj_id, offset, size, count, stride)
            is_write = 1 if kind is write else 0
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
            if track_uses:
                use = (loc_str, callstack)
            for key in keys:
                for roi_id, invocation, epoch in rois:
                    psec = psecs[roi_id]
                    entries = psec.entries
                    entry = entries.get(key)
                    if entry is None:
                        entry = PsecEntry(key, var)
                        entries[key] = entry
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
                    if track_uses and use not in entry.uses:
                        entry.uses.add(use)
                        psec.use_records += 1
                        if max_use and psec.use_records > max_use:
                            raise MemoryBudgetExceeded(
                                f"ROI {psec.roi_id}: more than "
                                f"{max_use} use-callstack records"
                            )
            return cost
        return on_probe_access

    def on_probe_classify(self, states, addr, size, var, count, stride,
                          loc, roi_id=None, site_id=None) -> int:
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
                if site_id is not None:
                    var = runtime._site_values[site_id][0]
                runtime.classify(
                    states, obj.obj_id, addr - obj.base, size, count,
                    stride, var, active, self.vm.instructions,
                )
                if runtime.config.inline_processing:
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
                if runtime.config.inline_processing:
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
        if runtime.config.inline_processing:
            cost += self.cm.inline_process
        return cost

    def on_free(self, obj: MemoryObject) -> int:
        self.runtime.free(obj.obj_id, self.vm.instructions)
        return self.cm.alloc_event

    def on_call_enter(self, function_name: str, instrumented: bool) -> int:
        self._frame_captured.append(False)
        config = self.runtime.config
        if (config.shadow_callstacks
                and config.policy.track_use_callstacks
                and instrumented):
            return self.cm.shadow_stack_maintain
        return 0

    def on_call_exit(self, function_name: str) -> int:
        if len(self._frame_captured) > 1:
            self._frame_captured.pop()
        config = self.runtime.config
        if config.shadow_callstacks and config.policy.track_use_callstacks:
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
        self._pin_access(kind, addr, min(size, 8), None, granules, 8, None,
                         tuple(self.vm.call_stack))
        cost = self.cm.pin_per_access * granules
        if runtime.config.inline_processing:
            cost += self.cm.inline_process * granules
        return cost

    def finish(self) -> None:
        self.runtime.finish()
