"""Unit tests for the runtime engine / VM-hook layer (§4.5–4.6)."""

import dataclasses
import types

import pytest

from repro.compiler import compile_carmot, compile_naive
from repro.compiler.driver import frontend
from repro.compiler.instrument import InstrumentationPlan, instrument_module
from repro.ir.instructions import AccessKind
from repro.runtime import (
    CarmotHooks,
    CarmotRuntime,
    FULL_POLICY,
    POLICIES,
    RuntimeConfig,
)
from repro.runtime.config import NAIVE_POLICIES
from repro.vm import run_module
from repro.vm.memory import Memory

LIB_HEAVY = """
int main() {
  int a[8];
  int b[8];
  for (int i = 0; i < 8; ++i) a[i] = 8 - i;
  for (int rep = 0; rep < 4; ++rep) {
    #pragma carmot roi abstraction(parallel_for)
    {
      memcpy((char*) b, (char*) a, 64);
      qsort_int(b, 8);
      float r = sqrt(2.0);
    }
  }
  print_int(b[0]);
  return 0;
}
"""


def run_with_config(source, **config_kwargs):
    module = frontend(source, "t")
    policy = config_kwargs.pop("policy", FULL_POLICY)
    instrument_module(module, InstrumentationPlan.naive(policy))
    config = RuntimeConfig(policy=policy, **config_kwargs)
    runtime = CarmotRuntime(module, config)
    hooks = CarmotHooks(runtime)
    result = run_module(module, hooks=hooks)
    return result, runtime


class TestPinTracing:
    def test_pin_attaches_only_inside_roi(self):
        _, runtime = run_with_config(LIB_HEAVY)
        # 4 invocations x 3 gated builtin calls inside the ROI; the init
        # loop's accesses are outside any ROI and never attach.
        assert runtime.stats.pin_attaches == 12

    def test_pin_traces_library_memory_accesses(self):
        _, runtime = run_with_config(LIB_HEAVY)
        assert runtime.stats.pin_accesses > 0

    def test_pin_events_feed_the_psec(self):
        """memcpy writes into b are only visible through Pin (§4.5): the
        PSEC must still classify b's elements."""
        _, runtime = run_with_config(LIB_HEAVY)
        psec = runtime.psecs[0]
        mem_keys = [k for k in psec.entries if k[0] == "mem"]
        assert mem_keys
        written = [k for k in mem_keys
                   if "O" in psec.entries[k].letters]
        assert written

    def test_carmot_pin_reduction_vs_naive(self):
        naive = compile_naive(LIB_HEAVY, name="t")
        carmot = compile_carmot(LIB_HEAVY, name="t")
        _, naive_rt = naive.run()
        _, carmot_rt = carmot.run()
        # Opt 6 clears the sqrt gate (pure math): fewer attaches.
        assert carmot_rt.stats.pin_attaches < naive_rt.stats.pin_attaches


class TestCallstackClustering:
    ALLOC_HEAVY = """
    void burst() {
      char *a = malloc(8);
      char *b = malloc(8);
      char *c = malloc(8);
      free(a); free(b); free(c);
    }
    int main() {
      for (int i = 0; i < 5; ++i) {
        #pragma carmot roi abstraction(parallel_for)
        { burst(); }
      }
      return 0;
    }
    """

    def test_clustering_shares_captures(self):
        _, clustered = run_with_config(self.ALLOC_HEAVY,
                                       callstack_clustering=True)
        _, naive = run_with_config(self.ALLOC_HEAVY,
                                   callstack_clustering=False)
        assert naive.stats.alloc_events == clustered.stats.alloc_events
        # One capture per burst() invocation vs one per allocation.
        assert clustered.stats.callstack_captures \
            < naive.stats.callstack_captures

    def test_clustered_run_is_cheaper(self):
        r1, _ = run_with_config(self.ALLOC_HEAVY, callstack_clustering=True)
        r2, _ = run_with_config(self.ALLOC_HEAVY, callstack_clustering=False)
        assert r1.cost < r2.cost

    def test_asmt_callstacks_preserved_either_way(self):
        _, runtime = run_with_config(self.ALLOC_HEAVY,
                                     callstack_clustering=True)
        heap = [e for e in runtime.asmt.entries().values()
                if e.kind == "heap"]
        assert heap
        for entry in heap:
            assert entry.alloc_callstack[-1] == "burst"


class TestEventFiltering:
    def test_accesses_outside_roi_ignored(self):
        source = """
        int main() {
          int x = 0;
          for (int i = 0; i < 50; ++i) x += i;   // no ROI here
          return x;
        }
        """
        _, runtime = run_with_config(source)
        assert runtime.stats.access_events == 0
        assert runtime.stats.events_ignored_outside_roi > 0

    def test_inline_processing_costs_more(self):
        r_pipe, _ = run_with_config(LIB_HEAVY, inline_processing=False)
        r_inline, _ = run_with_config(LIB_HEAVY, inline_processing=True)
        assert r_inline.cost > r_pipe.cost

    def test_shadow_callstacks_cost_less(self):
        r_shadow, _ = run_with_config(LIB_HEAVY, shadow_callstacks=True)
        r_walk, _ = run_with_config(LIB_HEAVY, shadow_callstacks=False)
        assert r_shadow.cost < r_walk.cost


#: (policy, inline_processing, shadow_callstacks) → cost of one probe
#: that records an event at ``count`` 0, 1 and 4, from the default
#: cost model: probe_push 14 (aggregate_probe 22 when count > 1), plus
#: a use-callstack capture (shadow 6, walk 450) when the policy records
#: use callstacks, plus inline_process 90 per covered element without
#: the pipeline.  Without Sets tracking a probe costs the push alone.
EXPECTED_COST = {
    ("parallel_for", False, True): (20, 20, 28),
    ("parallel_for", False, False): (464, 464, 472),
    ("parallel_for", True, True): (110, 110, 388),
    ("parallel_for", True, False): (554, 554, 832),
    ("full", False, True): (20, 20, 28),
    ("full", False, False): (464, 464, 472),
    ("full", True, True): (110, 110, 388),
    ("full", True, False): (554, 554, 832),
    ("task", False, True): (14, 14, 22),
    ("task", False, False): (14, 14, 22),
    ("task", True, True): (104, 104, 382),
    ("task", True, False): (104, 104, 382),
    ("stats", False, True): (14, 14, 22),
    ("stats", False, False): (14, 14, 22),
    ("stats", True, True): (104, 104, 382),
    ("stats", True, False): (104, 104, 382),
    ("smart_pointers_table1", False, True): (14, 14, 22),
    ("smart_pointers_table1", False, False): (14, 14, 22),
    ("smart_pointers_table1", True, True): (104, 104, 382),
    ("smart_pointers_table1", True, False): (104, 104, 382),
    ("smart_pointers", False, True): (14, 14, 22),
    ("smart_pointers", False, False): (14, 14, 22),
    ("smart_pointers", True, True): (14, 14, 22),
    ("smart_pointers", True, False): (14, 14, 22),
}
COUNTS = (0, 1, 4)
PROBE_POLICIES = [*NAIVE_POLICIES.values(), FULL_POLICY,
                  POLICIES["smart_pointers"]]


def probe_cases():
    for policy in PROBE_POLICIES:
        for inline in (False, True):
            for shadow in (False, True):
                for index, count in enumerate(COUNTS):
                    yield pytest.param(
                        policy, inline, shadow, count,
                        EXPECTED_COST[policy.name, inline, shadow][index],
                        id=f"{policy.name}-inline{int(inline)}-"
                           f"shadow{int(shadow)}-count{count}",
                    )


class TestProbeAccessParity:
    """``on_probe_access`` is bound once per run; whatever config it was
    bound for, it charges and counts exactly what the cost model says."""

    @pytest.fixture(scope="class")
    def module(self):
        return frontend("""
        int main() {
          int x = 0;
          #pragma carmot roi
          { x = 1; }
          return x;
        }
        """, "t")

    def setup_probe(self, module, policy, inline, shadow):
        runtime = CarmotRuntime(module, RuntimeConfig(
            policy=policy, inline_processing=inline,
            shadow_callstacks=shadow,
        ))
        hooks = CarmotHooks(runtime)
        hooks.vm = types.SimpleNamespace(memory=Memory(), instructions=7)
        obj = hooks.vm.memory.allocate(64, "heap")
        return runtime, hooks, obj

    @staticmethod
    def probe(runtime, hooks, addr, count):
        before = dataclasses.asdict(runtime.stats)
        events = runtime._block_events
        cost = hooks.on_probe_access(
            AccessKind.WRITE, addr, 8, None, count, 8, None, ("main",))
        after = dataclasses.asdict(runtime.stats)
        bumped = {name: after[name] - before[name]
                  for name in after if after[name] != before[name]}
        return cost, bumped, runtime._block_events - events

    @pytest.mark.parametrize("policy,inline,shadow,count,cost", probe_cases())
    def test_probe_in_roi(self, module, policy, inline, shadow, count, cost):
        runtime, hooks, obj = self.setup_probe(module, policy, inline, shadow)
        runtime.roi_begin(0)
        got = self.probe(runtime, hooks, obj.base + 8, count)
        if policy.track_sets:
            bumped = {"access_events": 1}
            if count > 1:
                bumped["aggregated_events"] = 1
            assert got == (cost, bumped, 1)
        else:
            assert got == (cost, {}, 0)

    @pytest.mark.parametrize("policy,inline,shadow,count,cost", probe_cases())
    def test_probe_outside_roi(self, module, policy, inline, shadow, count,
                               cost):
        runtime, hooks, obj = self.setup_probe(module, policy, inline, shadow)
        base = 22 if count > 1 else 14
        assert self.probe(runtime, hooks, obj.base, count) == (
            base, {"events_ignored_outside_roi": 1}, 0)

    @pytest.mark.parametrize("policy,inline,shadow,count,cost", probe_cases())
    def test_probe_at_invalid_address(self, module, policy, inline, shadow,
                                      count, cost):
        runtime, hooks, obj = self.setup_probe(module, policy, inline, shadow)
        runtime.roi_begin(0)
        base = 22 if count > 1 else 14
        assert self.probe(runtime, hooks, obj.end, count) == (base, {}, 0)
