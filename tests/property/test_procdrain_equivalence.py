"""Differential testing: the multi-process drain against the oracles.

The crash-recovery contract (DESIGN.md §13) promises that ``--drain
procs`` is observably identical to the in-process fold for every stream
shape and fault plan: worker kills that recover leave no trace in the
PSEC output or the degradation report, and dropped/crashed batches
degrade byte-identically to the in-process fold.
"""

import json
from pathlib import Path

import pytest

from repro.abstractions import describe_pse
from repro.compiler import compile_carmot
from repro.harness.bench import (
    _STREAM_SHAPES,
    _digest,
    _make_stream,
    _replay_packed,
    _resolve_ops,
    _stream_runtime,
)
from repro.resilience import FaultPlan, ResiliencePolicy

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
def test_golden_examples_identical_under_proc_drain(name):
    source = _example_source(name)
    outputs = {}
    for drain in ("inproc", "procs"):
        program = compile_carmot(source, name=f"examples/{name}.mc")
        result, runtime = program.run(drain=drain)
        outputs[drain] = (result.output, _psec_json(program, runtime))
    assert outputs["inproc"] == outputs["procs"]


@pytest.mark.parametrize("shape", sorted(_STREAM_SHAPES))
@pytest.mark.parametrize("seed", [0, 1234])
def test_random_streams_identical_under_proc_drain(shape, seed):
    ops, vars_by_obj, locs, callstacks = _make_stream(seed, 3000, shape)
    states = []
    for drain in ("inproc", "procs"):
        runtime = _stream_runtime(batch_size=128, drain=drain)
        resolved = _resolve_ops(ops, vars_by_obj, locs, callstacks, runtime)
        _replay_packed(runtime, resolved, 250)
        states.append((_digest(runtime), _entry_state(runtime)))
    assert states[0] == states[1]


@pytest.mark.parametrize("shape", sorted(_STREAM_SHAPES))
@pytest.mark.parametrize("plan", ["seed=5;exit@1", "seed=5;exit@1;exit@3"])
def test_worker_kills_recover_to_identical_streams(shape, plan):
    ops, vars_by_obj, locs, callstacks = _make_stream(99, 3000, shape)
    states = []
    reports = []
    for drain, fault_plan in (("inproc", None), ("procs", plan)):
        runtime = _stream_runtime(
            batch_size=128, drain=drain,
            fault_plan=fault_plan,
            resilience=ResiliencePolicy(max_retries=3),
        )
        resolved = _resolve_ops(ops, vars_by_obj, locs, callstacks, runtime)
        _replay_packed(runtime, resolved, 250)
        states.append((_digest(runtime), _entry_state(runtime)))
        reports.append(runtime.degradation.to_json())
    assert states[0] == states[1]
    # Recovered kills are not degradation: both reports are empty.
    assert reports[0] == reports[1]
    assert not json.loads(reports[1])["degraded"]


@pytest.mark.parametrize("name", EXAMPLES)
def test_fault_plan_degradation_identical_under_proc_drain(name):
    """Crashed/dropped batches degrade byte-identically whether the fold
    runs in-process or in supervised worker processes (conservative
    letters are forced worker-side for degraded batches)."""
    def run(drain):
        program = compile_carmot(_example_source(name),
                                 name=f"examples/{name}.mc")
        _, runtime = program.run(
            batch_size=16, drain=drain,
            fault_plan=FaultPlan.parse("seed=7;crash@1;drop@2;slow@3:100"),
            resilience=ResiliencePolicy(max_retries=1, degrade=True),
        )
        return runtime.degradation.to_json(), _psec_json(program, runtime)

    assert run("inproc") == run("procs")


def test_retry_exhaustion_still_byte_identical():
    """A persistent kill past the retry budget absorbs the shard into the
    master: the PSEC bytes must not change, only the degradation report
    gains the canonical fallback record."""
    ops, vars_by_obj, locs, callstacks = _make_stream(7, 2000, "mixed_loop")
    states = []
    for drain, fault_plan in (("inproc", None), ("procs", "seed=7;exit@2!")):
        runtime = _stream_runtime(
            batch_size=128, drain=drain,
            fault_plan=fault_plan,
            resilience=ResiliencePolicy(max_retries=1),
        )
        resolved = _resolve_ops(ops, vars_by_obj, locs, callstacks, runtime)
        _replay_packed(runtime, resolved, 250)
        states.append((_digest(runtime), _entry_state(runtime)))
    assert states[0] == states[1]
