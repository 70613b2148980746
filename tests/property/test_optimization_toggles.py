"""Differential testing: each PSEC optimization toggled off on its own.

PSEC is fully dynamic: every Set comes from the FSA over the accesses the
probes report, and the seven optimizations of §4.4/§4.5 (DESIGN.md §3)
only make that cheaper.  Figure 8 disables them one at a time, so each
single-toggle build is a configuration production runs.  This suite
holds every such build to the full CARMOT build's Sets, on the golden
examples, the shared serve subjects and seeded random ROI programs:

* opts 1, 2, 6 and 7 only remove or merge redundant probes, so the Sets
  are identical, PSE for PSE (opt 2 plans no ranged probe on any of
  these subjects today: the lowered array base is computed inside the
  loop body, so it is never available at the preheader, and its rows
  hold trivially until it does);
* opts 4 and 5 promote locals to registers, so the full build tracks
  fewer variable PSEs; every PSE both builds track has the same Sets,
  and what only the toggled build tracks is a variable, never memory;
* opt 3 classifies never-read stores at compile time and adds ``C``
  only when the store provably runs in two or more invocations, so the
  full build may lack a ``C`` the FSA observes, and differs in nothing
  else.

Each toggled build also stays engine-independent: the tree-walk oracle
and the bytecode VM produce the same serialized profile.
"""

from pathlib import Path

import pytest

from repro.compiler import compile_carmot, compile_pipeline
from repro.passes import parse_pipeline
from repro.runtime.psec_json import psec_sets_digest, serialize_profile
from repro.workloads.fuzz import random_roi_program
from tests.helpers.subjects import ARRAY_ROI_SOURCE, SCALAR_REDUCTION_SOURCE
from tests.helpers.treewalk import engine
from tests.integration.test_soundness import _canonical_sets

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = ["roi_loop", "stencil_calls", "anneal_stats"]

SUBJECTS = {
    **{name: (REPO / "examples" / f"{name}.mc").read_text()
       for name in EXAMPLES},
    "scalar_reduction": SCALAR_REDUCTION_SOURCE,
    "array_roi": ARRAY_ROI_SOURCE,
    **{f"rand_roi{seed}": random_roi_program(seed) for seed in range(3)},
}

#: Each optimization switched off on its own: (pipeline, runtime
#: overrides).  Opt 5 is two passes; opt 7 is the runtime's callstack
#: clustering.
WITHOUT = {
    "subsequent_accesses": ("carmot,-subsequent-accesses", {}),
    "aggregation": ("carmot,-aggregation", {}),
    "fixed_classification": ("carmot,-fixed-classification", {}),
    "selective_mem2reg": ("carmot,-selective-mem2reg", {}),
    "callgraph_o3": ("carmot,-callgraph-o3,-out-of-roi-suppression", {}),
    "reduce_pin": ("carmot,-pin-reduction", {}),
    "callstack_clustering": ("carmot", {"callstack_clustering": False}),
}
TOGGLES = list(WITHOUT)
EXACT_TOGGLES = ["subsequent_accesses", "aggregation", "reduce_pin",
                 "callstack_clustering"]
PROMOTING_TOGGLES = ["selective_mem2reg", "callgraph_o3"]


def _profile(name, toggle=None, vm="bytecode"):
    if toggle is None:
        pipeline, overrides = "carmot", {}
    else:
        pipeline, overrides = WITHOUT[toggle]
    program = compile_pipeline(SUBJECTS[name], pipeline, name=name)
    with engine(vm):
        return program.run(**overrides)


def _canonical(runtime):
    return {roi_id: _canonical_sets(runtime, roi_id)
            for roi_id in runtime.psecs}


def test_toggle_groups_cover_every_option():
    assert sorted(EXACT_TOGGLES + PROMOTING_TOGGLES
                  + ["fixed_classification"]) == sorted(TOGGLES)
    # Every optimization pass of the alias is switched off by some toggle.
    removed = {name for pipeline, _ in WITHOUT.values()
               for name in parse_pipeline("carmot")
               if name not in parse_pipeline(pipeline)}
    assert removed == set(parse_pipeline("carmot")) - {"instrument"}


@pytest.mark.parametrize("name", list(SUBJECTS))
@pytest.mark.parametrize("toggle", EXACT_TOGGLES)
def test_redundancy_toggles_keep_sets_identical(toggle, name):
    full_res, full_rt = _profile(name)
    off_res, off_rt = _profile(name, toggle)
    assert off_res.output == full_res.output
    assert psec_sets_digest(off_rt.psecs) == psec_sets_digest(full_rt.psecs)


@pytest.mark.parametrize("name", list(SUBJECTS))
@pytest.mark.parametrize("toggle", PROMOTING_TOGGLES)
def test_promoting_toggles_only_add_variable_pses(toggle, name):
    full_res, full_rt = _profile(name)
    off_res, off_rt = _profile(name, toggle)
    assert off_res.output == full_res.output
    full, off = _canonical(full_rt), _canonical(off_rt)
    assert sorted(off) == sorted(full)
    for roi_id, full_sets in full.items():
        for canon, letters in full_sets.items():
            assert off[roi_id].get(canon) == letters, (roi_id, canon)
        extra = [canon for canon in off[roi_id] if canon not in full_sets]
        assert all(canon[0] == "var" for canon in extra), extra


@pytest.mark.parametrize("name", list(SUBJECTS))
def test_fixed_classification_may_only_drop_cloneable(name):
    full_res, full_rt = _profile(name)
    off_res, off_rt = _profile(name, "fixed_classification")
    assert off_res.output == full_res.output
    full, off = _canonical(full_rt), _canonical(off_rt)
    assert full.keys() == off.keys()
    for roi_id, full_sets in full.items():
        assert full_sets.keys() == off[roi_id].keys(), roi_id
        for canon, letters in full_sets.items():
            observed = off[roi_id][canon]
            assert letters in (observed, observed - {"C"}), \
                (roi_id, canon, letters, observed)


@pytest.mark.parametrize("name", EXAMPLES)
@pytest.mark.parametrize("toggle", TOGGLES)
def test_toggled_builds_identical_across_engines(toggle, name):
    pipeline, overrides = WITHOUT[toggle]
    program = compile_pipeline(SUBJECTS[name], pipeline, name=name)

    def run(vm):
        with engine(vm):
            result, runtime = program.run(**overrides)
        return (serialize_profile(runtime, result), result.output,
                result.cost, result.instructions, result.access_counts)

    assert run("bytecode") == run("treewalk")


#: The loop opt 2 (aggregation) is for: every iteration of an ROI loop
#: reads ``data[i]`` and writes ``out[i]``, so one ranged probe per array
#: could stand for the loop's accesses.
AGGREGABLE = """
int data[16];
int out[16];
int main() {
    int r = 3;
    for (int k = 0; k < 16; k = k + 1) { data[k] = k; }
    #pragma carmot roi abstraction(parallel_for)
    for (int i = 0; i < 16; i = i + 1) {
        out[i] = data[i] + r;
    }
    print_int(out[15]);
    return 0;
}
"""


@pytest.mark.xfail(strict=True, reason=(
    "opt 2 plans no ranged probe: lowering computes each array base "
    "inside the loop body, so it is never available at the preheader "
    "(DESIGN.md §10); a fix must flip this test"))
def test_aggregation_plans_a_ranged_probe():
    result, runtime = compile_carmot(AGGREGABLE, name="aggregable").run()
    assert result.output == ["18"]
    assert runtime.stats.aggregated_events > 0
