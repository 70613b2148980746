"""The recording oracle for the runtime's fold.

Inside :func:`decoder_fold`, every runtime and hook adapter records each
hook-level event as one tuple — kind, object, offset, size, count,
stride, var, loc, callstack, active-ROI snapshot, time, and the kind's
payload (classify letters, escape destination, allocation metadata) —
and replays it, one event at a time, through the per-PSE object API:
:meth:`Psec.record_access`, :meth:`Psec.force_classification`, the ASMT
and the reachability graph.  It shares no code with the kernel (no flat
transition table, no key interning, no per-site object cache), so a run
folded by it and a run folded by the kernel must agree byte for byte.

The hooks' costs and counters, object resolution and the per-ROI event
budget stay the runtime's own.  The suites select the oracle through the
``object`` fold parameter (:data:`FOLDS`); ``kernel`` is the production
fold.
"""

from contextlib import contextmanager, nullcontext

from repro.ir.instructions import AccessKind
from repro.resilience.degradation import CONSERVATIVE_READ, CONSERVATIVE_WRITE
from repro.runtime.asmt import AsmtEntry
from repro.runtime.engine import CarmotHooks, CarmotRuntime

#: Fold parameter values: ``object`` = this oracle, ``kernel`` = the
#: production fold.
FOLDS = ("object", "kernel")


def _keys(var, obj, offset, size, count, stride):
    if var is not None and count == 1:
        return [("var", obj)]
    return [("mem", obj, offset + j * (stride or size), size)
            for j in range(count)]


def replay(runtime, event):
    """Apply one recorded event to ``runtime``'s PSECs and ASMT."""
    config = runtime.config
    (kind, obj, offset, size, count, stride, var, loc, callstack, active,
     time, payload) = event
    over, under = [], list(active)
    if runtime._event_budget and active:
        over, under = runtime._budget_note(active)
    if kind in ("read", "write"):
        is_write = kind == "write"
        keys = _keys(var, obj, offset, size, count, stride)
        letters = CONSERVATIVE_WRITE if is_write else CONSERVATIVE_READ
        for key in keys:
            for roi_id, _, _ in over:
                runtime.psecs[roi_id].force_classification(
                    key, var, letters, time)
        for key in keys:
            for roi_id, invocation, epoch in under:
                runtime.psecs[roi_id].record_access(
                    key, var, is_write, invocation, time, loc, callstack,
                    config.policy.track_use_callstacks,
                    config.max_use_records, epoch,
                )
    elif kind == "classify":
        for key in _keys(var, obj, offset, size, count, stride):
            for roi_id, _, _ in active:
                runtime.psecs[roi_id].force_classification(
                    key, var, payload, time)
    elif kind == "alloc":
        akind, alloc_loc, alloc_callstack = payload
        runtime.asmt.register(AsmtEntry(
            obj_id=obj, size=size, kind=akind, var=var,
            alloc_loc=alloc_loc, alloc_callstack=alloc_callstack,
            alloc_time=time,
        ))
        if config.policy.track_reachability:
            for roi_id, _, _ in active:
                psec = runtime.psecs[roi_id]
                psec.allocated_in_roi.add(obj)
                psec.reachability.add_node(obj, True, time)
    elif kind == "escape":
        for roi_id, _, _ in active:
            runtime.psecs[roi_id].reachability.add_edge(
                obj, payload, offset, time, str(loc) if loc else None,
            )
    else:
        assert kind == "free", kind
        runtime.asmt.mark_freed(obj, time)


#: Accesses the oracle folded inside the current :func:`decoder_fold`:
#: ``[probes, pin accesses]``.
FOLDED = [0, 0]


def _record_access(hooks, kind, obj, offset, size, count, stride, var, loc,
                   callstack, time):
    runtime = hooks.runtime
    replay(runtime, (
        "write" if kind is AccessKind.WRITE else "read", obj.obj_id,
        offset, size, count, stride, var, loc, callstack,
        tuple(runtime._active), time, None,
    ))


def _recording_probe_site(hooks, kind, size, var, stride, loc):
    """The hook adapter's per-site factory, with the site recording its
    accesses instead of folding them; charges and counts exactly as the
    kernel's closures, and spills the counters before every access as
    the VM does before a hook."""
    runtime, cm, config = hooks.runtime, hooks.cm, hooks.runtime.config
    stats = runtime.stats
    use_cost = 0
    if config.policy.track_use_callstacks:
        use_cost = (cm.use_callstack_shadow if config.codesigned
                    else cm.use_callstack_walk)
    inline = 0 if config.codesigned else cm.inline_process

    def probe(ic, cost, addr, callstack, count=1):
        miss = cm.aggregate_probe if count > 1 else cm.probe_push
        if not runtime._active:
            stats.events_ignored_outside_roi += 1
            return miss
        obj = hooks._object_for(addr) if config.policy.track_sets else None
        if obj is None:
            return miss
        stats.access_events += 1
        if count > 1:
            stats.aggregated_events += 1
            charge = cm.aggregate_probe + use_cost + inline * count
        else:
            charge = cm.probe_push + use_cost + inline
        hooks.vm.instructions = ic
        hooks.vm.cost = cost
        FOLDED[0] += 1
        _record_access(hooks, kind, obj, addr - obj.base, size, count,
                       stride, var, loc, callstack, ic)
        return charge
    return probe


def _record_pin_fold(hooks, kind, obj, offset, size, count):
    FOLDED[1] += 1
    _record_access(hooks, kind, obj, offset, size, count, 8, None, None,
                   tuple(hooks.vm.call_stack), hooks.vm.instructions)


def _record_classify(runtime, states, obj_id, offset, size, count, stride,
                     var, active, time):
    active = tuple(runtime._active) if active is None else active
    replay(runtime, ("classify", obj_id, offset, size, count, stride, var,
                     None, (), active, time, states))


def _record_alloc(runtime, obj, time):
    replay(runtime, ("alloc", obj.obj_id, 0, obj.size, 1, 0, obj.var, None,
                     (), tuple(runtime._active), time,
                     (obj.kind, obj.alloc_loc, obj.alloc_callstack)))


def _record_escape(runtime, src_obj, src_offset, dst_obj, loc, time):
    replay(runtime, ("escape", src_obj, src_offset, 0, 1, 0, None, loc, (),
                     tuple(runtime._active), time, dst_obj))


def _record_free(runtime, obj_id, time):
    replay(runtime, ("free", obj_id, 0, 0, 1, 0, None, None, (),
                     tuple(runtime._active), time, None))


_PATCHES = (
    (CarmotHooks, "probe_site", _recording_probe_site),
    (CarmotHooks, "_pin_fold", _record_pin_fold),
    (CarmotRuntime, "classify", _record_classify),
    (CarmotRuntime, "alloc", _record_alloc),
    (CarmotRuntime, "escape", _record_escape),
    (CarmotRuntime, "free", _record_free),
)


@contextmanager
def decoder_fold():
    """Fold every runtime created in the block through the oracle.

    The block fails unless the oracle folded at least one probe or Pin
    access: a kernel path that bypasses these patches would otherwise
    make a differential compare the kernel with itself, and pass."""
    saved = [(cls, name, getattr(cls, name)) for cls, name, _ in _PATCHES]
    for cls, name, oracle in _PATCHES:
        setattr(cls, name, oracle)
    FOLDED[:] = [0, 0]
    try:
        yield FOLDED
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)
    assert any(FOLDED), (
        "the recording oracle folded no access: the run bypassed it")


def fold(name):
    """Context for one :data:`FOLDS` value."""
    return decoder_fold() if name == "object" else nullcontext()
