"""Differential testing: the flat-table fold kernel against the decoder
oracle.

The tests-side decoder (:mod:`tests.helpers.decoder`) replays every packed
row, one event at a time, through the per-PSE object API.  For the three
golden example programs, for seeded random loop-shaped event streams,
and under fault plans and
event budgets, the kernel must produce byte-identical PSEC output and
identical degradation reports.  The ``object`` side of each comparison is
the decoder oracle, the ``packed`` side the production kernel.
"""

import json
from pathlib import Path

import pytest

from repro.abstractions import describe_pse
from repro.compiler import compile_carmot
from repro.resilience import ResiliencePolicy
from tests.helpers.decoder import FOLDS, fold
from tests.helpers.streams import (
    STREAM_SHAPES,
    make_stream,
    psec_digest,
    replay_packed,
    resolve_ops,
    stream_runtime,
)

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = ["roi_loop", "stencil_calls", "anneal_stats"]


def _example_source(name: str) -> str:
    return (REPO / "examples" / f"{name}.mc").read_text()


def _psec_json(program, runtime) -> str:
    out = {}
    for roi_id, psec in sorted(runtime.psecs.items()):
        roi = program.module.rois[roi_id]
        out[roi.name] = {
            "invocations": psec.invocations,
            "total_accesses": psec.total_accesses,
            "use_records": psec.use_records,
            "sets": {
                set_name: sorted(str(describe_pse(k, psec, runtime.asmt))
                                 for k in keys)
                for set_name, keys in psec.sets().items()
            },
        }
    return json.dumps(out, indent=2, sort_keys=True)


def _entry_state(runtime):
    """Full per-entry observable state, not just the four sets."""
    out = {}
    for roi_id, psec in sorted(runtime.psecs.items()):
        out[roi_id] = (
            psec.total_accesses,
            psec.use_records,
            psec.invocations,
            {
                str(key): (
                    entry.letters, entry.access_count, entry.first_time,
                    entry.last_time, entry.forced,
                    sorted(map(str, entry.uses)),
                )
                for key, entry in psec.entries.items()
            },
        )
    return out


@pytest.mark.parametrize("name", EXAMPLES)
def test_golden_examples_identical_across_encodings(name):
    source = _example_source(name)
    outputs = []
    for fold_name in FOLDS:
        program = compile_carmot(source, name=f"examples/{name}.mc")
        with fold(fold_name):
            result, runtime = program.run()
        outputs.append((result.output, _psec_json(program, runtime)))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("shape", sorted(STREAM_SHAPES))
@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_random_streams_identical_across_encodings(shape, seed):
    """Seeded loop-shaped streams (the scalar_loop shape repeats
    variable PSEs; array_walk reaches a new heap key on most accesses)."""
    ops, vars_by_obj, locs, callstacks = make_stream(seed, 4000, shape)
    states = []
    for fold_name in FOLDS:
        with fold(fold_name):
            runtime = stream_runtime(batch_size=128)
            resolved = resolve_ops(ops, vars_by_obj, locs, callstacks,
                                   runtime)
            replay_packed(runtime, resolved, 250)
        states.append((psec_digest(runtime), _entry_state(runtime)))
    assert states[0] == states[1]


@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_epoch_streams_identical_across_encodings(seed):
    """A re-entered ROI loop (``roi_reset`` starts a new epoch) commits
    each epoch's letters before the FSA restarts.  Read-only epochs
    alternate with read/write ones so that a lost commit changes the
    Sets."""
    ops, vars_by_obj, locs, callstacks = make_stream(seed, 3000,
                                                     "mixed_loop")
    states = []
    for fold_name in FOLDS:
        with fold(fold_name):
            runtime = stream_runtime(batch_size=128)
            roi_id = next(iter(runtime.psecs))
            resolved = resolve_ops(ops, vars_by_obj, locs, callstacks,
                                   runtime)
            for index, (is_write, obj_id, offset, count, stride, var, loc,
                        site_id, cs) in enumerate(resolved):
                if index % 100 == 0:
                    if index:
                        runtime.roi_end(roi_id)
                    if index % 500 == 0:
                        runtime.roi_reset(roi_id)
                    runtime.roi_begin(roi_id)
                read_only_epoch = (index // 500) % 2 == 0
                runtime.packed_access(
                    0 if read_only_epoch else is_write, obj_id, offset, 8,
                    count, stride, var, loc, site_id, cs, index,
                )
            runtime.roi_end(roi_id)
            runtime.finish()
        states.append((psec_digest(runtime), _entry_state(runtime)))
    assert states[0] == states[1]


def _run_example(name, fold_name, **kwargs):
    program = compile_carmot(_example_source(name),
                             name=f"examples/{name}.mc")
    with fold(fold_name):
        _, runtime = program.run(**kwargs)
    return program, runtime


@pytest.mark.parametrize("name", EXAMPLES)
def test_small_batches_identical_across_encodings(name):
    """Sixteen-event batches cut every example's stream into many
    blocks; the oracle and the kernel fold them to the same bytes."""
    def run(fold_name):
        program, runtime = _run_example(name, fold_name, batch_size=16)
        return runtime.degradation.to_json(), _psec_json(program, runtime)

    report_object, psec_object = run("object")
    report_packed, psec_packed = run("packed")
    assert report_object == report_packed
    assert psec_object == psec_packed


@pytest.mark.parametrize("name", ["roi_loop", "anneal_stats"])
def test_event_budget_identical_across_encodings(name):
    def run(fold_name):
        program, runtime = _run_example(
            name, fold_name, batch_size=16,
            resilience=ResiliencePolicy(max_events_per_roi=20),
        )
        return runtime.degradation.to_json(), _psec_json(program, runtime)

    assert run("object") == run("packed")
