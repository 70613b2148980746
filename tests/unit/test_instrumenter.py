"""Unit tests for probe insertion and the CARMOT optimization toggles."""

import pytest

from repro.compiler import compile_carmot, compile_naive, compile_pipeline
from repro.compiler.driver import frontend
from repro.compiler.instrument import InstrumentationPlan, instrument_module
from repro.ir.instructions import Call, ProbeAccess, ProbeClassify, ProbeEscape
from repro.runtime.config import POLICIES, FULL_POLICY

SOURCE = """
int shared_total = 0;

int helper(int v) { return v * 2; }

int main() {
  int x = 1;
  int *p = (int*) malloc(16);
  for (int i = 0; i < 6; ++i) {
    #pragma carmot roi abstraction(parallel_for)
    {
      p[i % 2] = helper(x) + i;
      shared_total += p[i % 2];
    }
  }
  free((char*) p);
  print_int(shared_total);
  return 0;
}
"""


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
UNCLUSTERED = {"callstack_clustering": False}
#: No optimization at all: the instrumenter alone, without clustering.
NO_OPTS = ("instrument", UNCLUSTERED)
#: Each optimization switched on on its own.
ONLY = {
    "subsequent_accesses": ("subsequent-accesses,instrument", UNCLUSTERED),
    "aggregation": ("aggregation,instrument", UNCLUSTERED),
    "fixed_classification": ("fixed-classification,instrument",
                             UNCLUSTERED),
    "selective_mem2reg": ("selective-mem2reg,instrument", UNCLUSTERED),
    "callgraph_o3": ("callgraph-o3,out-of-roi-suppression,instrument",
                     UNCLUSTERED),
    "reduce_pin": ("pin-reduction,instrument", UNCLUSTERED),
    "callstack_clustering": ("instrument", {}),
}


def run_config(config):
    pipeline, overrides = config
    return compile_pipeline(SOURCE, pipeline, name="t").run(**overrides)


def probes_of(module, kind):
    return [i for f in module.functions.values()
            for b in f.blocks for i in b.instrs if isinstance(i, kind)]


class TestNaivePlan:
    def test_every_access_probed(self):
        module = frontend(SOURCE, "t")
        report = instrument_module(
            module, InstrumentationPlan.naive(FULL_POLICY)
        )
        assert report.access_probes > 10
        assert report.suppressed_probes == 0

    def test_all_calls_gated(self):
        module = frontend(SOURCE, "t")
        instrument_module(module, InstrumentationPlan.naive(FULL_POLICY))
        calls = probes_of(module, Call)
        assert calls
        assert all(c.pin_gated for c in calls)

    def test_escape_probes_follow_policy(self):
        module = frontend(SOURCE, "t")
        instrument_module(
            module, InstrumentationPlan.naive(POLICIES["parallel_for"])
        )
        assert not probes_of(module, ProbeEscape)
        module2 = frontend(SOURCE, "t")
        instrument_module(module2, InstrumentationPlan.naive(FULL_POLICY))
        assert probes_of(module2, ProbeEscape)

    def test_smart_pointer_policy_skips_access_probes(self):
        module = frontend(SOURCE, "t")
        report = instrument_module(
            module, InstrumentationPlan.naive(POLICIES["smart_pointers"])
        )
        assert report.access_probes == 0
        assert probes_of(module, ProbeEscape)


class TestCarmotPlan:
    def test_suppresses_redundant_probes(self):
        program = compile_carmot(SOURCE, name="t")
        assert program.report.suppressed_probes > 0

    def test_clears_pin_gates(self):
        program = compile_carmot(SOURCE, name="t")
        assert program.report.pin_gates_cleared > 0
        # helper() is a user function: its gate must be gone.
        calls = [c for c in probes_of(program.module, Call)
                 if c.direct_target == "helper"]
        assert calls and not any(c.pin_gated for c in calls)

    def test_opts_disabled_means_more_probes(self):
        full = compile_carmot(SOURCE, name="t")
        none = compile_pipeline(SOURCE, NO_OPTS[0], name="t")
        assert none.report.access_probes > full.report.access_probes

    def test_each_option_toggle_keeps_semantics(self):
        expected, _ = compile_carmot(SOURCE, name="t").run()
        for toggle, config in WITHOUT.items():
            result, _ = run_config(config)
            assert result.output == expected.output, toggle

    def test_each_option_never_increases_cost_when_enabled(self):
        base_cost, _ = run_config(NO_OPTS)
        for toggle, config in ONLY.items():
            result, _ = run_config(config)
            assert result.cost <= base_cost.cost * 1.02, toggle


class TestClassifyProbes:
    LOOPY = """
    float data[64];
    float out[64];
    int main() {
      for (int k = 0; k < 64; ++k) data[k] = float_of_int(k);
      for (int rep = 0; rep < 3; ++rep) {
        #pragma carmot roi abstraction(parallel_for)
        for (int i = 0; i < 64; ++i) {
          out[i] = data[i] * 2.0;
        }
      }
      return 0;
    }
    """

    def test_hoisted_classification_emitted(self):
        program = compile_carmot(self.LOOPY, name="t")
        assert program.report.classify_probes >= 0
        # The classification must match a naive profile exactly.
        _, carmot_rt = program.run()
        _, naive_rt = compile_naive(self.LOOPY, name="t").run()
        # Memory PSEs must agree exactly; variables may differ only by the
        # legitimately-promoted induction variable (opt 4).
        carmot_sets = {
            name: len([k for k in keys if k[0] == "mem"])
            for name, keys in carmot_rt.psecs[0].sets().items()
        }
        naive_sets = {
            name: len([k for k in keys if k[0] == "mem"])
            for name, keys in naive_rt.psecs[0].sets().items()
        }
        assert carmot_sets == naive_sets
