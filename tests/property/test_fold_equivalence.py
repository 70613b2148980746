"""Differential testing: the flat-table fold kernel against the
recording oracle.

The tests-side oracle (:mod:`tests.helpers.decoder`) records every
hook-level event and replays it, one event at a time, through the
per-PSE object API.  For the three golden example programs, for seeded
random loop-shaped access streams, and under event budgets, the kernel
must produce byte-identical PSEC output and identical degradation
reports.  The ``object`` side of each comparison is the oracle, the
``kernel`` side the production fold.
"""

import json
from pathlib import Path

import pytest

from repro.abstractions import describe_pse
from repro.compiler import compile_carmot, compile_naive
from repro.resilience import ResiliencePolicy
from repro.runtime.psec import MemoryBudgetExceeded
from repro.vm.bcinterp import BytecodeInterpreter
from repro.vm.codegen import lower_module
from tests.helpers.decoder import FOLDS, fold
from tests.helpers.streams import (
    STREAM_SHAPES,
    make_stream,
    probe,
    psec_digest,
    replay_stream,
    resolve_ops,
    stream_hooks,
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
def test_golden_examples_identical_across_folds(name):
    source = _example_source(name)
    outputs = []
    for fold_name in FOLDS:
        program = compile_carmot(source, name=f"examples/{name}.mc")
        with fold(fold_name):
            result, runtime = program.run()
        outputs.append((result.output, result.cost,
                        runtime.degradation.to_json(),
                        _psec_json(program, runtime)))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("shape", sorted(STREAM_SHAPES))
@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_random_streams_identical_across_folds(shape, seed):
    """Seeded loop-shaped streams (the scalar_loop shape repeats
    variable PSEs; array_walk reaches a new heap key on most accesses)."""
    stream = make_stream(seed, 4000, shape)
    states = []
    for fold_name in FOLDS:
        with fold(fold_name):
            runtime = stream_runtime()
            replay_stream(runtime, stream, 250)
        states.append((psec_digest(runtime), _entry_state(runtime)))
    assert states[0] == states[1]


@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_epoch_streams_identical_across_folds(seed):
    """A re-entered ROI loop (``roi_reset`` starts a new epoch) commits
    each epoch's letters before the FSA restarts.  Read-only epochs
    alternate with read/write ones so that a lost commit changes the
    Sets."""
    ops, vars_by_obj, locs, callstacks = make_stream(seed, 3000,
                                                     "mixed_loop")
    states = []
    for fold_name in FOLDS:
        with fold(fold_name):
            runtime = stream_runtime()
            roi_id = next(iter(runtime.psecs))
            hooks, bases = stream_hooks(runtime, len(vars_by_obj))
            resolved = resolve_ops(ops, vars_by_obj, locs, callstacks,
                                   hooks)
            for index, op in enumerate(resolved):
                if index % 100 == 0:
                    if index:
                        runtime.roi_end(roi_id)
                    if index % 500 == 0:
                        runtime.roi_reset(roi_id)
                    runtime.roi_begin(roi_id)
                read_only_epoch = (index // 500) % 2 == 0
                probe(bases, op, index,
                      is_write=0 if read_only_epoch else op[0])
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


@pytest.mark.parametrize("name", ["roi_loop", "anneal_stats"])
def test_event_budget_identical_across_folds(name):
    def run(fold_name):
        program, runtime = _run_example(
            name, fold_name,
            resilience=ResiliencePolicy(max_events_per_roi=20),
        )
        return runtime.degradation.to_json(), _psec_json(program, runtime)

    assert run("object") == run("kernel")


#: memcpy/qsort traffic inside the ROI reaches the PSEC only through Pin
#: accesses (§4.5).
PIN_HEAVY = """
int main() {
  int a[8];
  int b[8];
  for (int i = 0; i < 8; ++i) a[i] = 8 - i;
  for (int rep = 0; rep < 4; ++rep) {
    #pragma carmot roi abstraction(parallel_for)
    {
      memcpy((char*) b, (char*) a, 64);
      qsort_int(b, 8);
    }
  }
  print_int(b[0]);
  return 0;
}
"""


@pytest.mark.parametrize("compile_program", [compile_carmot, compile_naive],
                         ids=["carmot", "naive"])
def test_pin_accesses_identical_across_folds(compile_program):
    outputs = []
    for fold_name in FOLDS:
        program = compile_program(PIN_HEAVY, name="pin_heavy")
        with fold(fold_name):
            result, runtime = program.run()
        assert runtime.stats.pin_accesses > 0
        outputs.append((result.output, result.cost,
                        _entry_state(runtime),
                        _psec_json(program, runtime)))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", ["roi_loop", "stencil_calls"])
def test_use_record_budget_raises_alike_across_folds(name):
    """Both folds raise the use-record budget at the same event (the
    examples whose abstraction tracks use-callstacks), and leave the
    interpreter's counters at that access: the oracle's probe spills
    them before each access, the kernel's never does, and the frame's
    trap handler restores them."""
    def run(fold_name):
        program = compile_carmot(_example_source(name),
                                 name=f"examples/{name}.mc")
        with fold(fold_name):
            runtime, hooks = program.make_runtime(max_use_records=3)
            vm = BytecodeInterpreter(lower_module(program.module), hooks)
            with pytest.raises(MemoryBudgetExceeded) as info:
                vm.run()
        last = max(entry.last_time for psec in runtime.psecs.values()
                   for entry in psec.entries.values())
        assert vm.instructions == last
        return str(info.value), vm.instructions, vm.cost, _entry_state(
            runtime)

    assert run("object") == run("kernel")


#: An inner ROI inside an outer one: each access in the inner ROI folds
#: into both PSECs, through the fold's loop over the active ROIs (every
#: probe of the paper's ports runs with one ROI active).
NESTED_ROIS = """
int a[8];
int b[8];
int scale(int x) { return x * 2; }
int main() {
  int total = 0;
  for (int r = 0; r < 3; ++r) {
    #pragma carmot roi name(outer) abstraction(parallel_for)
    {
      for (int i = 0; i < 8; ++i) {
        a[i] = a[i] + r;
        #pragma carmot roi name(inner) abstraction(parallel_for)
        {
          b[i] = b[i] + scale(a[i]);
          total = total + b[i];
        }
      }
    }
  }
  print_int(total);
  return 0;
}
"""


@pytest.mark.parametrize("budget", [0, 40], ids=["unbounded",
                                               "events-per-roi"])
def test_nested_rois_identical_across_folds(budget):
    outputs = []
    for fold_name in FOLDS:
        program = compile_carmot(NESTED_ROIS, name="nested_rois")
        with fold(fold_name):
            result, runtime = program.run(
                resilience=ResiliencePolicy(max_events_per_roi=budget))
        outer, inner = (runtime.psecs[roi_id]
                        for roi_id in sorted(runtime.psecs))
        assert outer.entries.keys() & inner.entries.keys()
        assert runtime.degraded == bool(budget)
        outputs.append((result.output, result.cost, result.instructions,
                        runtime.degradation.to_json(),
                        _entry_state(runtime),
                        _psec_json(program, runtime)))
    assert outputs[0] == outputs[1]
