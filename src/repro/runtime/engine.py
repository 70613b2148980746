"""The CARMOT runtime engine and its VM hook adapter.

:class:`CarmotRuntime` owns the per-ROI PSECs, the ASMT, and the batching
pipeline; :class:`CarmotHooks` is the :class:`repro.vm.hooks.ExecutionHooks`
implementation that instrumented modules run with.  The hooks charge
main-thread costs (event pushes, callstack captures, Pin tracing) per the
cost model; FSA processing happens in the pipeline and is not charged to
the program's critical path, modelling the shadow-profiling design of §4.6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import DegradedResult, RuntimeToolError
from repro.ir.instructions import AccessKind, SourceLoc
from repro.ir.module import Module
from repro.resilience.degradation import (
    ACTION_CLASSIFY_ONLY,
    ACTION_CONSERVATIVE,
    ACTION_DELAYED,
    ACTION_RETRIED,
    CONSERVATIVE_READ,
    CONSERVATIVE_WRITE,
    DegradationRecord,
    DegradationReport,
)
from repro.resilience.faultinject import FaultInjector
from repro.runtime import fsa
from repro.runtime.asmt import Asmt, AsmtEntry
from repro.runtime.config import RuntimeConfig
from repro.runtime.packed import (
    F_ACTIVE,
    F_AUX,
    F_COUNT,
    F_CS,
    F_LAST,
    F_OBJ,
    F_OFFSET,
    F_SITE,
    F_SIZE,
    F_STRIDE,
    F_TIME,
    KIND_ALLOC,
    KIND_CLASSIFY,
    KIND_ESCAPE,
    KIND_FREE,
    KIND_WRITE,
    ROW_STRIDE,
    InternTable,
    PackedBlock,
)
from repro.runtime.pipeline import Batch, BatchingPipeline, Failure
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
    #: ``probe.static`` executions (prescreen facts): synchronous
    #: bookkeeping, never an event in the pipeline.
    static_probe_events: int = 0
    alloc_events: int = 0
    escape_events: int = 0
    pin_accesses: int = 0
    pin_attaches: int = 0
    callstack_captures: int = 0
    events_ignored_outside_roi: int = 0
    #: Intern-table sizes, filled in by :meth:`CarmotRuntime.finish`.
    pse_keys_interned: int = 0
    callsites_interned: int = 0
    callstacks_interned: int = 0
    active_sets_interned: int = 0
    source_locs_interned: int = 0


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
        resilience = self.config.resilience
        self._resilience = resilience
        self.degradation = DegradationReport()
        self.injector: Optional[FaultInjector] = (
            FaultInjector(self.config.fault_plan)
            if self.config.fault_plan is not None else None
        )
        #: Per-ROI event budget state (only consulted when a budget is set,
        #: keeping the default hot path untouched).
        self._event_budget = resilience.max_events_per_roi > 0
        self._roi_event_counts: Dict[int, int] = {
            roi_id: 0 for roi_id in module.rois
        }
        self._budget_tripped: Set[int] = set()
        self.pipeline = BatchingPipeline(
            postprocess=self._postprocess_batch,
            max_retries=resilience.max_retries,
            retry_backoff=resilience.retry_backoff,
            degrade=resilience.degrade,
            on_degraded=self._apply_degraded_batch,
            on_retry=self._note_retry,
            injector=self.injector,
        )
        #: PSE-key interning: one shared tuple instance per key, even
        #: when the key appears in several ROIs' PSECs.
        self._pse_keys: Dict[PseKey, PseKey] = {}
        self._var_keys: Dict[int, PseKey] = {}
        #: Prescreen sidecar: compile-time Set verdicts, resolved into
        #: the PSECs at :meth:`finish`.  ``_static_notes`` accumulates
        #: per-(fact, object) observations: [first_time, base_offset,
        #: var, {epoch: invocation count}].
        self.static_facts = getattr(module, "static_facts", None)
        self._static_notes: Dict[Tuple[int, int], List] = {}
        self._block = PackedBlock()
        self._block_limit = self.config.batch_size
        self._block_events = 0
        #: Run-merge anchors: nine-field row head → base offset of the
        #: anchor row in the current block (reset at every flush).
        self._anchors: Dict[Tuple, int] = {}
        self._cs = InternTable()
        self._actives = InternTable()
        self._letters = InternTable()
        #: site id → (var, loc, str(loc)); ids 0..n-1 match the
        #: compile-time ``module.site_table`` so probes can carry them.
        self._site_values: List[Tuple] = []
        self._site_ids: Dict[Tuple[int, int], int] = {}
        for var, loc in getattr(module, "site_table", ()) or ():
            self._register_site(var, loc)
        self._active_tuple: Tuple = ()
        self._active_id = self._actives.intern(())
    # -- ROI lifecycle ------------------------------------------------------

    def roi_begin(self, roi_id: int) -> None:
        self._invocations[roi_id] += 1
        self._active.append(
            (roi_id, self._invocations[roi_id], self._epochs[roi_id])
        )
        self.psecs[roi_id].invocations += 1
        self._active_tuple = tuple(self._active)
        self._active_id = self._actives.intern(self._active_tuple)

    def roi_reset(self, roi_id: int) -> None:
        """A new epoch: the ROI's loop is being entered afresh (§4.2)."""
        self._epochs[roi_id] += 1

    def roi_end(self, roi_id: int) -> None:
        for index in range(len(self._active) - 1, -1, -1):
            if self._active[index][0] == roi_id:
                del self._active[index]
                self._active_tuple = tuple(self._active)
                self._active_id = self._actives.intern(self._active_tuple)
                return

    @property
    def any_roi_active(self) -> bool:
        return bool(self._active)

    def static_note(self, fact_index: int, obj_id: int, base_offset: int,
                    var, roi_id: int, time: int) -> None:
        """Record one ``probe.static`` execution (one ROI invocation).

        Only counts are kept per epoch; the letters resolve at
        :meth:`finish`, after all dynamic folds, exactly like the FSA's
        epoch-commit rule: ``once`` letters for single-invocation
        epochs, ``steady`` letters otherwise, unioned across epochs."""
        self.stats.static_probe_events += 1
        epoch = self._epochs[roi_id]
        note = self._static_notes.get((fact_index, obj_id))
        if note is None:
            self._static_notes[(fact_index, obj_id)] = [
                time, base_offset, var, {epoch: 1}
            ]
        else:
            counts = note[3]
            counts[epoch] = counts.get(epoch, 0) + 1

    def _resolve_static_facts(self) -> None:
        """Merge the prescreen verdicts into the PSECs (§4.2 rules)."""
        if not self._static_notes:
            return
        if self.static_facts is None:
            raise RuntimeToolError(
                "probe.static executed but the module carries no "
                "prescreen static facts sidecar"
            )
        facts = self.static_facts.facts
        intern_key = self._pse_keys.setdefault
        for fact_index, obj_id in sorted(self._static_notes):
            first_time, base_offset, var, epoch_counts = (
                self._static_notes[(fact_index, obj_id)]
            )
            fact = facts[fact_index]
            psec = self.psecs.get(fact.roi_id)
            if psec is None:
                continue
            letters: Set[str] = set()
            for count in epoch_counts.values():
                letters |= set(fact.once_letters if count == 1
                               else fact.steady_letters)
            if "T" in letters:
                letters.discard("C")
            text = "".join(sorted(letters))
            if fact.kind == "slot":
                key = self._var_keys.get(obj_id)
                if key is None:
                    key = intern_key(
                        ("var", obj_id), ("var", obj_id)
                    )
                    self._var_keys[obj_id] = key
                psec.force_classification(key, var, text, first_time)
            else:
                for index in range(fact.count):
                    offset = base_offset + fact.start + index * fact.stride
                    key = ("mem", obj_id, offset, fact.size)
                    psec.force_classification(
                        intern_key(key, key), None, text, first_time
                    )

    def finish(self) -> None:
        try:
            self._flush_block()
            self.pipeline.close()
            self._resolve_static_facts()
        finally:
            self.stats.pse_keys_interned = len(self._pse_keys)
            self.stats.source_locs_interned = SourceLoc.interned_count()
            self.stats.callsites_interned = len(self._site_values)
            self.stats.callstacks_interned = len(self._cs)
            self.stats.active_sets_interned = len(self._actives)
        for seq, delay in self.pipeline.slow_batches:
            self.degradation.add(DegradationRecord(
                batch_seq=seq, kind="slow", rois=(), events=0,
                action=ACTION_DELAYED, sets_complete=True,
                use_callstacks_complete=True,
                detail=f"injected {delay} virtual time units of latency",
            ))
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

    def require_complete(self) -> None:
        """Raise :class:`DegradedResult` if the run needed fail-soft
        intervention (callers that demand exact PSECs)."""
        if self.degradation.degraded:
            raise DegradedResult(
                "profiling run completed in degraded mode: "
                + self.degradation.summary(),
                report=self.degradation,
            )

    # -- event capture -------------------------------------------------------

    def _budget_note(self, active):
        """Per-ROI event budget: count the event against every active ROI
        and split the snapshot into (over-budget, under-budget) entries.
        Past the limit an ROI stops full FSA/use-callstack tracking and
        records conservative letters instead."""
        limit = self._resilience.max_events_per_roi
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
        (direct ``instrument_module`` use, Pin accesses, escapes)."""
        site_id = self._site_ids.get((id(var), id(loc)))
        if site_id is None:
            site_id = self._register_site(var, loc)
        return site_id

    def _flush_block(self) -> None:
        block = self._block
        if block.data:
            block.events = self._block_events
            self._block = PackedBlock()
            self._block_events = 0
            self._anchors.clear()
            self.pipeline.push_block(block)

    def packed_access(self, is_write, obj_id, offset, size, count, stride,
                      var, loc, site_id, callstack, time) -> None:
        """Append one access row — or run-merge it into an identical one.

        An access whose nine head fields match an anchor row already in
        the block (a loop body re-executing the same access in the same
        ROI invocation) bumps the anchor's repeat count and last-time
        instead of appending; the fold replays repeats exactly (see
        :mod:`repro.runtime.packed`).  Event budgets disable merging so
        per-event narrowing keeps its row-per-event shape: past the
        budget, an access becomes a conservative classify row for the
        over-budget ROIs plus an access row for the rest.
        """
        if site_id is None:
            site_id = self._site_for(var, loc)
        # Inlined InternTable.intern: one dict probe on the hit path.
        cs = self._cs
        cs_id = cs.ids.get(callstack)
        if cs_id is None:
            cs_id = cs.intern(callstack)
        stride = stride or 0
        block = self._block
        if self._event_budget:
            over, under = self._budget_note(self._active_tuple)
            if over:
                letters = (CONSERVATIVE_WRITE if is_write
                           else CONSERVATIVE_READ)
                block.data.extend((
                    KIND_CLASSIFY, obj_id, offset, size, count, stride,
                    site_id, 0, self._actives.intern(tuple(over)), time,
                    self._letters.intern(letters), time,
                ))
                self._block_events += 1
                if self._block_events >= self._block_limit:
                    self._flush_block()
                if not under:
                    return
                self._block.data.extend((
                    is_write, obj_id, offset, size, count, stride,
                    site_id, cs_id, self._actives.intern(tuple(under)),
                    time, 0, time,
                ))
                self._block_events += 1
                if self._block_events >= self._block_limit:
                    self._flush_block()
                return
            block.data.extend((
                is_write, obj_id, offset, size, count, stride,
                site_id, cs_id, self._active_id, time, 0, time,
            ))
            self._block_events += 1
            if self._block_events >= self._block_limit:
                self._flush_block()
            return
        head = (is_write, obj_id, offset, size, count, stride,
                site_id, cs_id, self._active_id)
        anchors = self._anchors
        base = anchors.get(head)
        data = block.data
        if base is None:
            anchors[head] = len(data)
            data.extend(head)
            data.extend((time, 0, time))
        else:
            data[base + F_AUX] += 1
            data[base + F_LAST] = time
        events = self._block_events + 1
        self._block_events = events
        if events >= self._block_limit:
            self._flush_block()

    def packed_classify(self, states, obj_id, offset, size, count, stride,
                        var, loc, site_id, active, time) -> None:
        """``active=None`` stamps the current snapshot; an explicit tuple
        is the hoisted-probe case (``roi_id`` binding)."""
        if site_id is None:
            site_id = self._site_for(var, loc)
        if active is None:
            active_tuple, active_id = self._active_tuple, self._active_id
        else:
            active_tuple, active_id = active, self._actives.intern(active)
        if self._event_budget and active_tuple:
            self._budget_note(active_tuple)
        block = self._block
        block.data.extend((
            KIND_CLASSIFY, obj_id, offset, size, count, stride or 0,
            site_id, 0, active_id, time, self._letters.intern(states), time,
        ))
        self._block_events += 1
        if self._block_events >= self._block_limit:
            self._flush_block()

    def packed_alloc(self, obj: MemoryObject, time: int) -> None:
        if self._event_budget and self._active_tuple:
            self._budget_note(self._active_tuple)
        block = self._block
        aux = len(block.side)
        block.side.append(
            (obj.kind, obj.var, obj.alloc_loc, obj.alloc_callstack)
        )
        block.data.extend((
            KIND_ALLOC, obj.obj_id, 0, obj.size, 0, 0, 0, 0,
            self._active_id, time, aux, time,
        ))
        self._block_events += 1
        if self._block_events >= self._block_limit:
            self._flush_block()

    def packed_escape(self, src_obj, src_offset, dst_obj, loc, time) -> None:
        if self._event_budget and self._active_tuple:
            self._budget_note(self._active_tuple)
        site_id = self._site_for(None, loc)
        block = self._block
        block.data.extend((
            KIND_ESCAPE, src_obj, src_offset, 0, 0, 0, site_id, 0,
            self._active_id, time, dst_obj, time,
        ))
        self._block_events += 1
        if self._block_events >= self._block_limit:
            self._flush_block()

    def packed_free(self, obj_id: int, time: int) -> None:
        if self._event_budget and self._active_tuple:
            self._budget_note(self._active_tuple)
        block = self._block
        block.data.extend((
            KIND_FREE, obj_id, 0, 0, 0, 0, 0, 0, self._active_id, time, 0,
            time,
        ))
        self._block_events += 1
        if self._block_events >= self._block_limit:
            self._flush_block()

    # -- degraded-mode fallback ----------------------------------------------

    def _note_retry(self, batch: Batch, attempt: int,
                    exc: BaseException) -> None:
        """A batch failed and is being retried (recoverable): nothing is
        lost, but the run needed intervention — record it."""
        rois: Set[int] = set()
        active_values = self._actives.values
        data = batch.events.data
        for base in range(F_ACTIVE, len(data), ROW_STRIDE):
            for entry in active_values[data[base]]:
                rois.add(entry[0])
        self.degradation.add(DegradationRecord(
            batch_seq=batch.seq, kind="worker_crash",
            rois=tuple(sorted(rois)), events=len(batch.events),
            action=ACTION_RETRIED, sets_complete=True,
            use_callstacks_complete=True,
            detail=f"attempt {attempt}: {type(exc).__name__}: {exc}",
        ))

    def _apply_degraded_batch(self, batch: Batch, failure: Failure) -> None:
        """A batch is unrecoverable (retries exhausted, dropped, or shed):
        apply conservative classification instead of the full FSA.

        Reads force Input, writes force Output+Transfer; allocations,
        escapes, and frees still apply exactly (they are order-insensitive
        here), so the ASMT and reachability graph never lose nodes.  Runs
        in batch sequence order.
        """
        kind, detail = failure
        rois = self._degrade_block(batch.events)
        self.degradation.add(DegradationRecord(
            batch_seq=batch.seq, kind=kind, rois=tuple(sorted(rois)),
            events=len(batch.events), action=ACTION_CONSERVATIVE,
            sets_complete=False, use_callstacks_complete=False,
            detail=detail,
        ))

    # -- the fold (the flat-table FSA kernel) ---------------------------------

    def _postprocess_batch(self, batch: Batch) -> None:
        block = batch.events
        self._fold_rows(block, range(0, len(block.data), ROW_STRIDE))

    def _fold_rows(self, block: PackedBlock, bases) -> None:
        """Fold packed rows into the PSECs in one tight loop.

        ``bases`` are row start offsets into ``block.data`` (ascending =
        event order).  The per-ROI ``total_accesses``/``use_records``
        counters and the use-record budget are applied per event, exactly
        as replaying every event (merged repeats included) through
        :meth:`Psec.record_access` would.
        """
        data = block.data
        site_values = self._site_values
        cs_values = self._cs.values
        active_values = self._actives.values
        letters_values = self._letters.values
        psecs = self.psecs
        flat = fsa.FLAT_TRANSITIONS
        track_uses = self.config.policy.track_use_callstacks
        max_use = self.config.max_use_records
        var_keys = self._var_keys
        intern_key = self._pse_keys.setdefault
        use = None
        for base in bases:
            kind = data[base]
            if kind <= KIND_WRITE:
                obj = data[base + F_OBJ]
                var, _, loc_str = site_values[data[base + F_SITE]]
                count = data[base + F_COUNT]
                time = data[base + F_TIME]
                t_last = data[base + F_LAST]
                n = data[base + F_AUX] + 1
                active = active_values[data[base + F_ACTIVE]]
                if var is not None and count == 1:
                    key = var_keys.get(obj)
                    if key is None:
                        key = intern_key(("var", obj), ("var", obj))
                        var_keys[obj] = key
                    keys = (key,)
                else:
                    size = data[base + F_SIZE]
                    stride = data[base + F_STRIDE] or size
                    offset = data[base + F_OFFSET]
                    keys = tuple(
                        intern_key(k, k) for k in (
                            ("mem", obj, offset + j * stride, size)
                            for j in range(count)
                        )
                    )
                if track_uses:
                    use = (loc_str, cs_values[data[base + F_CS]])
                for key in keys:
                    for roi_id, invocation, epoch in active:
                        psec = psecs[roi_id]
                        entries = psec.entries
                        entry = entries.get(key)
                        if entry is None:
                            entry = PsecEntry(key, var)
                            entries[key] = entry
                        elif var is not None and entry.var is None:
                            entry.var = var
                        if epoch != entry.last_epoch:
                            entry.forced = "".join(sorted(fsa.force_states(
                                fsa.STATES[entry.state_code], entry.forced
                            ).sets))
                            entry.state_code = 0
                            entry.last_invocation = -1
                            entry.last_epoch = epoch
                        event_code = (
                            kind if invocation != entry.last_invocation
                            else kind + 2
                        )
                        # Merged repeats are non-fresh accesses of the
                        # same kind (same active id ⇒ same invocation),
                        # and every step lands on a fixpoint of those
                        # (asserted in tests): the repeats only add to
                        # the counters and the max last-time.
                        state_code = flat[entry.state_code * 4 + event_code]
                        if state_code < 0:
                            fsa.step_code(entry.state_code, event_code)
                        entry.state_code = state_code
                        if kind:
                            entry.write_seen = True
                        entry.access_count += n
                        entry.last_invocation = invocation
                        if entry.first_time is None:
                            entry.first_time = time
                        if entry.last_time is None or t_last > entry.last_time:
                            entry.last_time = t_last
                        psec.total_accesses += n
                        if track_uses and use not in entry.uses:
                            entry.uses.add(use)
                            psec.use_records += 1
                            if max_use and psec.use_records > max_use:
                                raise MemoryBudgetExceeded(
                                    f"ROI {psec.roi_id}: more than "
                                    f"{max_use} use-callstack records"
                                )
            elif kind == KIND_CLASSIFY:
                obj = data[base + F_OBJ]
                var, _, _ = site_values[data[base + F_SITE]]
                letters = letters_values[data[base + F_AUX]]
                time = data[base + F_TIME]
                if var is not None and data[base + F_COUNT] == 1:
                    keys = (intern_key(("var", obj), ("var", obj)),)
                else:
                    size = data[base + F_SIZE]
                    stride = data[base + F_STRIDE] or size
                    offset = data[base + F_OFFSET]
                    keys = tuple(
                        intern_key(k, k) for k in (
                            ("mem", obj, offset + j * stride, size)
                            for j in range(data[base + F_COUNT])
                        )
                    )
                for key in keys:
                    for roi_id, _, _ in active_values[data[base + F_ACTIVE]]:
                        psecs[roi_id].force_classification(
                            key, var, letters, time
                        )
            elif kind == KIND_ALLOC:
                akind, var, loc, callstack = block.side[data[base + F_AUX]]
                obj = data[base + F_OBJ]
                time = data[base + F_TIME]
                self.asmt.register(AsmtEntry(
                    obj_id=obj, size=data[base + F_SIZE], kind=akind,
                    var=var, alloc_loc=loc, alloc_callstack=callstack,
                    alloc_time=time,
                ))
                if self.config.policy.track_reachability:
                    for roi_id, _, _ in active_values[data[base + F_ACTIVE]]:
                        psec = psecs[roi_id]
                        psec.allocated_in_roi.add(obj)
                        psec.reachability.add_node(obj, True, time)
            elif kind == KIND_ESCAPE:
                _, loc, _ = site_values[data[base + F_SITE]]
                loc_repr = str(loc) if loc else None
                for roi_id, _, _ in active_values[data[base + F_ACTIVE]]:
                    psecs[roi_id].reachability.add_edge(
                        data[base + F_OBJ], data[base + F_AUX],
                        data[base + F_OFFSET], data[base + F_TIME], loc_repr,
                    )
            else:  # KIND_FREE
                self.asmt.mark_freed(data[base + F_OBJ], data[base + F_TIME])

    def _degrade_block(self, block: PackedBlock) -> Set[int]:
        """Degraded fallback: force conservative letters for access rows,
        apply everything else exactly."""
        data = block.data
        site_values = self._site_values
        active_values = self._actives.values
        intern_key = self._pse_keys.setdefault
        rois: Set[int] = set()
        for base in range(0, len(data), ROW_STRIDE):
            kind = data[base]
            if kind <= KIND_WRITE:
                obj = data[base + F_OBJ]
                var, _, _ = site_values[data[base + F_SITE]]
                letters = CONSERVATIVE_WRITE if kind else CONSERVATIVE_READ
                time = data[base + F_TIME]
                reps = data[base + F_AUX]
                if var is not None and data[base + F_COUNT] == 1:
                    keys = (intern_key(("var", obj), ("var", obj)),)
                else:
                    size = data[base + F_SIZE]
                    stride = data[base + F_STRIDE] or size
                    offset = data[base + F_OFFSET]
                    keys = tuple(
                        intern_key(k, k) for k in (
                            ("mem", obj, offset + j * stride, size)
                            for j in range(data[base + F_COUNT])
                        )
                    )
                for key in keys:
                    for roi_id, _, _ in active_values[data[base + F_ACTIVE]]:
                        psec = self.psecs[roi_id]
                        psec.force_classification(key, var, letters, time)
                        if reps:
                            # Replay run-merged repeats: the forced letters
                            # idempote; only the max last-time advances.
                            psec.force_classification(
                                key, var, letters, data[base + F_LAST]
                            )
                        rois.add(roi_id)
            elif kind == KIND_FREE:
                self.asmt.mark_freed(data[base + F_OBJ], data[base + F_TIME])
            else:
                # Classify/alloc/escape rows apply exactly (order-
                # insensitive here), so the ASMT and reachability graph
                # never lose nodes.
                self._fold_rows(block, (base,))
                for entry in active_values[data[base + F_ACTIVE]]:
                    rois.add(entry[0])
        return rois


class CarmotHooks(ExecutionHooks):
    """VM hook adapter: records events, charges main-thread costs.

    Both execution engines — the IR tree-walk and the register-bytecode
    dispatch loop — drive this same adapter, and the contract is shared:
    before any hook fires, the engine must have spilled its live
    instruction/cost counters into ``self.vm`` (this adapter reads
    ``vm.cost``, and helpers read ``vm.memory`` / ``vm.call_stack``),
    and hooks may mutate ``vm.cost``, which the engine reloads after the
    call.  Identical hook sequences with identical arguments are what
    make the two engines' profiles byte-for-byte equal.
    """

    def __init__(
        self,
        runtime: CarmotRuntime,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.runtime = runtime
        self.cm = cost_model
        self.vm = None  # set by the Interpreter
        #: Per-frame flags for callstack clustering (opt 7): has the current
        #: function invocation already captured its callstack?
        self._frame_captured: List[bool] = [False]

    # -- helpers ---------------------------------------------------------------

    def _object_for(self, addr: int) -> Optional[MemoryObject]:
        obj = self.vm.memory.try_object_at(addr)
        if obj is not None and obj.obj_id not in self.runtime.asmt:
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

    def on_probe_access(self, kind, addr, size, var, count, stride, loc,
                        callstack, site_id=None) -> int:
        runtime = self.runtime
        cost = self.cm.aggregate_probe if count > 1 else self.cm.probe_push
        if not runtime.any_roi_active:
            runtime.stats.events_ignored_outside_roi += 1
            return cost
        if runtime.config.policy.track_sets:
            obj = self._object_for(addr)
            if obj is not None:
                runtime.stats.access_events += 1
                if count > 1:
                    runtime.stats.aggregated_events += 1
                if runtime.config.policy.track_use_callstacks:
                    cost += (self.cm.use_callstack_shadow
                             if runtime.config.shadow_callstacks
                             else self.cm.use_callstack_walk)
                if runtime.config.inline_processing:
                    cost += self.cm.inline_process * max(1, count)
                runtime.packed_access(
                    kind is AccessKind.WRITE, obj.obj_id, addr - obj.base,
                    size, count, stride, var, loc, site_id, callstack,
                    self.vm.instructions,
                )
        return cost

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
                runtime.packed_classify(
                    states, obj.obj_id, addr - obj.base, size, count,
                    stride, var, loc, site_id, active, self.vm.instructions,
                )
                if runtime.config.inline_processing:
                    return (self.cm.classify_probe
                            + self.cm.inline_process * max(1, count))
        return self.cm.classify_probe

    def on_probe_static(self, fact_index: int, addr: int,
                        roi_id: int) -> int:
        """Prescreen fact bookkeeping: resolve the object once per ROI
        invocation, emit **no** event (the verdict was proven at compile
        time; only invocation counts per epoch are needed)."""
        runtime = self.runtime
        if runtime.config.policy.track_sets:
            obj = self._object_for(addr)
            if obj is not None:
                runtime.static_note(
                    fact_index, obj.obj_id, addr - obj.base, obj.var,
                    roi_id, self.vm.instructions,
                )
        return self.cm.probe_push

    def on_probe_escape(self, value_addr, dest_addr, loc) -> int:
        runtime = self.runtime
        if not runtime.any_roi_active:
            return self.cm.escape_event
        if runtime.config.policy.track_reachability and value_addr != 0:
            dst = self._object_for(value_addr)
            src = self._object_for(dest_addr)
            if dst is not None and src is not None and src is not dst:
                runtime.stats.escape_events += 1
                runtime.packed_escape(
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
        runtime.packed_alloc(obj, self.vm.instructions)
        if runtime.config.inline_processing:
            cost += self.cm.inline_process
        return cost

    def on_free(self, obj: MemoryObject) -> int:
        self.runtime.packed_free(obj.obj_id, self.vm.instructions)
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
        if runtime.config.policy.track_sets:
            obj = self._object_for(addr)
            if obj is not None:
                runtime.packed_access(
                    kind is AccessKind.WRITE, obj.obj_id, addr - obj.base,
                    min(size, 8), granules, 8, None, None, None,
                    tuple(self.vm.call_stack), self.vm.instructions,
                )
        cost = self.cm.pin_per_access * granules
        if runtime.config.inline_processing:
            cost += self.cm.inline_process * granules
        return cost

    def finish(self) -> None:
        self.runtime.finish()
