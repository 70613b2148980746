"""The differential oracle for the runtime's flat-table fold kernel.

:func:`replay_rows` decodes packed rows and replays them, one event at a
time, through the per-PSE object API — :meth:`Psec.record_access`,
:meth:`Psec.force_classification`, the ASMT and the reachability graph.
A run-merged row is expanded back into its repeats, stamped with the
row's last timestamp, and the events replay in timestamp order: the
original event order, except that merged repeats (non-fresh accesses of
one ROI invocation) may move later, which the FSA's confluence property
makes invisible.  It shares no code with ``CarmotRuntime._fold_rows``
(no flat transition table, no one-step replay of merged repeats, no
key interning), so a run folded by it and a run folded by the kernel
must agree byte for byte.

:func:`decoder_fold` swaps the oracle in for the kernel on every runtime
created inside the ``with`` block; capture, batching, event budgets,
fault injection, retries and degradation records stay the runtime's own.
The suites select it through the ``object`` fold parameter
(:data:`FOLDS`): the oracle replays rows into per-PSE objects, the
``packed`` fold is the production kernel.
"""

from contextlib import contextmanager, nullcontext

from repro.resilience.degradation import CONSERVATIVE_READ, CONSERVATIVE_WRITE
from repro.runtime.asmt import AsmtEntry
from repro.runtime.engine import CarmotRuntime
from repro.runtime.packed import (
    KIND_ALLOC,
    KIND_CLASSIFY,
    KIND_ESCAPE,
    KIND_FREE,
    KIND_WRITE,
    ROW_STRIDE,
)

#: Fold parameter values: ``object`` = this oracle, ``packed`` = kernel.
FOLDS = ("object", "packed")


def _keys(var, obj, offset, size, count, stride):
    if var is not None and count == 1:
        return [("var", obj)]
    return [("mem", obj, offset + j * (stride or size), size)
            for j in range(count)]


def _decode(runtime, block, base):
    (kind, obj, offset, size, count, stride, site, cs, active, time, aux,
     last) = block.data[base:base + ROW_STRIDE]
    var, loc, _ = runtime._site_values[site]
    return (kind, obj, offset, size, count, stride, var, loc,
            runtime._cs.values[cs], runtime._actives.values[active],
            time, aux, last)


def replay_rows(runtime, block, bases):
    """Apply the rows at ``bases`` to ``runtime``'s PSECs and ASMT."""
    events = []
    for base in bases:
        row = _decode(runtime, block, base)
        kind, time, aux, last = row[0], row[10], row[11], row[12]
        events.append((time, row))
        if kind <= KIND_WRITE:
            events.extend((last, row) for _ in range(aux))
    events.sort(key=lambda event: event[0])  # stable: ties keep row order
    for time, row in events:
        _replay_event(runtime, block, row, time)


def _replay_event(runtime, block, row, time):
    config = runtime.config
    (kind, obj, offset, size, count, stride, var, loc, callstack, active,
     _, aux, _) = row
    keys = _keys(var, obj, offset, size, count, stride)
    if kind <= KIND_WRITE:
        for key in keys:
            for roi_id, invocation, epoch in active:
                runtime.psecs[roi_id].record_access(
                    key, var, kind == KIND_WRITE, invocation, time, loc,
                    callstack, config.policy.track_use_callstacks,
                    config.max_use_records, epoch,
                )
    elif kind == KIND_CLASSIFY:
        letters = runtime._letters.values[aux]
        for key in keys:
            for roi_id, _, _ in active:
                runtime.psecs[roi_id].force_classification(
                    key, var, letters, time
                )
    elif kind == KIND_ALLOC:
        akind, avar, aloc, acallstack = block.side[aux]
        runtime.asmt.register(AsmtEntry(
            obj_id=obj, size=size, kind=akind, var=avar,
            alloc_loc=aloc, alloc_callstack=acallstack,
            alloc_time=time,
        ))
        if config.policy.track_reachability:
            for roi_id, _, _ in active:
                psec = runtime.psecs[roi_id]
                psec.allocated_in_roi.add(obj)
                psec.reachability.add_node(obj, True, time)
    elif kind == KIND_ESCAPE:
        for roi_id, _, _ in active:
            runtime.psecs[roi_id].reachability.add_edge(
                obj, aux, offset, time, str(loc) if loc else None,
            )
    else:
        assert kind == KIND_FREE, kind
        runtime.asmt.mark_freed(obj, time)


def degrade_rows(runtime, block):
    """Degraded fallback: conservative letters for every access event,
    every other row applied exactly.  Returns the touched ROI ids."""
    rois = set()
    for base in range(0, len(block.data), ROW_STRIDE):
        (kind, obj, offset, size, count, stride, var, _, _, active, time,
         aux, last) = _decode(runtime, block, base)
        if kind <= KIND_WRITE:
            letters = CONSERVATIVE_WRITE if kind else CONSERVATIVE_READ
            for event_time in [time] + [last] * aux:
                for key in _keys(var, obj, offset, size, count, stride):
                    for roi_id, _, _ in active:
                        runtime.psecs[roi_id].force_classification(
                            key, var, letters, event_time
                        )
                        rois.add(roi_id)
            continue
        replay_rows(runtime, block, (base,))
        if kind != KIND_FREE:
            rois.update(entry[0] for entry in active)
    return rois


@contextmanager
def decoder_fold():
    """Fold every runtime created in the block through the oracle."""
    saved = CarmotRuntime._fold_rows, CarmotRuntime._degrade_block
    CarmotRuntime._fold_rows = replay_rows
    CarmotRuntime._degrade_block = degrade_rows
    try:
        yield
    finally:
        CarmotRuntime._fold_rows, CarmotRuntime._degrade_block = saved


def fold(name):
    """Context for one :data:`FOLDS` value."""
    return decoder_fold() if name == "object" else nullcontext()
