"""Unit tests for the resilience subsystem: execution budgets, the
per-ROI event budget, and degraded-mode PSEC."""

import pytest

from repro.compiler import compile_carmot
from repro.errors import (
    BudgetExceeded,
    RuntimeToolError,
    TrapError,
    WorkloadError,
)
from repro.compiler.driver import frontend
from repro.parallel.executor import ParallelMachine, simulate_parallel_for
from repro.resilience import (
    ExecutionBudgets,
    ResiliencePolicy,
    parse_budget_spec,
)
from repro.resilience.budgets import MAX_CALL_DEPTH
from repro.runtime.psec import MemoryBudgetExceeded
from repro.vm import run_module

ROI_LOOP = """
int main() {
  int a[16];
  int sum;
  sum = 0;
  for (int r = 0; r < 8; ++r) {
    #pragma carmot roi abstraction(parallel_for)
    {
      for (int i = 0; i < 16; ++i) {
        a[i] = a[i] + r;
        sum = sum + a[i];
      }
    }
  }
  print_int(sum);
  return 0;
}
"""


def run_roi_loop(**kwargs):
    program = compile_carmot(ROI_LOOP, name="roi_loop")
    result, runtime = program.run(**kwargs)
    return result, runtime


def sets_of(runtime):
    return {
        roi_id: {name: list(keys) for name, keys in psec.sets().items()}
        for roi_id, psec in runtime.psecs.items()
    }


# -- parsing ----------------------------------------------------------------


class TestBudgetSpecParsing:
    def test_parse_full_syntax(self):
        spec = parse_budget_spec(
            "steps=5000000,heap=1048576,depth=256,events-per-roi=20000"
        )
        assert spec.vm == ExecutionBudgets(5_000_000, 1_048_576, 256)
        assert spec.runtime == ResiliencePolicy(max_events_per_roi=20_000)

    def test_unknown_key_rejected(self):
        with pytest.raises(RuntimeToolError, match="unknown budget key"):
            parse_budget_spec("fuel=9")

    @pytest.mark.parametrize("entry", ["queue=64", "policy=block",
                                       "policy=shed", "heartbeat=25",
                                       "worker-deadline=10000",
                                       "worker_deadline=750", "retries=1",
                                       "degrade=1", "backoff=5"])
    def test_queue_keys_rejected(self, entry):
        """The profiling pipeline has no queue, no worker processes to
        supervise and no batch it could lose: ``queue``/``policy``/
        ``heartbeat``/``worker-deadline`` and ``retries``/``backoff``/
        ``degrade`` are unknown budget keys, not silently ignored ones."""
        with pytest.raises(RuntimeToolError, match="unknown budget key"):
            parse_budget_spec(f"events-per-roi=1,{entry}")

    def test_negative_value_rejected(self):
        with pytest.raises(RuntimeToolError):
            parse_budget_spec("steps=-1")

    @pytest.mark.parametrize("key", ["heap", "depth", "events-per-roi"])
    def test_every_key_rejects_a_negative_value(self, key):
        with pytest.raises(RuntimeToolError,
                           match=f"budget '{key}' must be >= 0, got -1"):
            parse_budget_spec(f"{key}=-1")

    def test_non_integer_value_rejected(self):
        with pytest.raises(RuntimeToolError, match="bad budget value"):
            parse_budget_spec("steps=")
        with pytest.raises(RuntimeToolError, match="bad budget value"):
            parse_budget_spec("steps=lots")


# -- engine-level degraded-mode PSEC -----------------------------------------


class TestDegradedPsec:
    def test_default_policy_is_bit_identical(self):
        _, clean_a = run_roi_loop()
        _, clean_b = run_roi_loop(resilience=ResiliencePolicy())
        assert sets_of(clean_a) == sets_of(clean_b)
        assert not clean_a.degraded and not clean_b.degraded
        assert clean_a.degradation.to_json() == clean_b.degradation.to_json()
        assert clean_a.degradation.to_json() == \
            '{"degraded":false,"records":[],"rois":{}}'

    def test_memory_budget_raises_mid_stream(self):
        """The use-record memory budget is not a degradation: it raises
        out of the run instead of closing a half-folded PSEC."""
        with pytest.raises(MemoryBudgetExceeded,
                           match="more than 10 use-callstack records"):
            run_roi_loop(max_use_records=10)


class TestEventBudget:
    def test_budget_trip_degrades_but_stays_sound(self):
        _, budgeted = run_roi_loop(
            resilience=ResiliencePolicy(max_events_per_roi=20)
        )
        _, clean = run_roi_loop()
        assert budgeted.degraded
        psec = budgeted.psecs[0]
        assert psec.degraded
        assert "event-budget" in psec.degradation_reasons
        assert not psec.use_callstacks_complete
        clean_sets = sets_of(clean)[0]
        budget_sets = sets_of(budgeted)[0]
        clean_keys = set().union(*(map(tuple, v)
                                   for v in clean_sets.values()))
        budget_keys = set().union(*(map(tuple, v)
                                    for v in budget_sets.values()))
        assert clean_keys <= budget_keys
        # Conservative direction: input/output only grow; a PSE may move
        # Cloneable -> Transfer but never the other way.
        for name in ("input", "output"):
            assert set(map(tuple, clean_sets[name])) <= \
                set(map(tuple, budget_sets[name]))
        assert set(map(tuple, budget_sets["cloneable"])) <= \
            set(map(tuple, clean_sets["cloneable"]))

    def test_budget_trip_is_deterministic(self):
        def run_once():
            _, runtime = run_roi_loop(
                resilience=ResiliencePolicy(max_events_per_roi=20))
            return runtime.degradation.to_json(), sets_of(runtime)

        report_a, sets_a = run_once()
        report_b, sets_b = run_once()
        assert report_a == report_b  # byte-identical
        assert sets_a == sets_b

    def test_budget_trip_report_is_pinned(self):
        """The serialized report of an event-budget trip: cached
        profiles carry it, so its fields and their spelling must not
        move.  It last moved when the always -1 ``batch_seq`` left the
        record."""
        _, runtime = run_roi_loop(
            resilience=ResiliencePolicy(max_events_per_roi=20))
        assert runtime.degradation.to_json() == (
            '{"degraded":true,"records":[{"action":"classify-only",'
            '"detail":"ROI 0 exceeded 20 events; switched '
            'to conservative classification","events":0,'
            '"kind":"event-budget","rois":[0],"sets_complete":false,'
            '"use_callstacks_complete":false}],"rois":{"0":{"reasons":'
            '["event-budget"],"sets_complete":false,'
            '"use_callstacks_complete":false}}}')
        assert runtime.degradation.summary() == \
            "1 intervention(s): 1x event-budget; ROIs affected: [0]"

    def test_budget_off_counts_nothing(self):
        _, runtime = run_roi_loop()
        assert runtime._roi_event_counts[0] == 0


# -- VM execution guards -----------------------------------------------------


class TestVMBudgets:
    def test_step_budget(self):
        module = frontend("int main() { while (1) {} return 0; }")
        with pytest.raises(BudgetExceeded) as excinfo:
            run_module(module, budgets=ExecutionBudgets(max_steps=1000))
        assert isinstance(excinfo.value, TrapError)

    def test_heap_budget(self):
        module = frontend("""
            int main() {
              for (int i = 0; i < 100; ++i) { char *p = malloc(1024); }
              return 0;
            }
        """)
        with pytest.raises(BudgetExceeded, match="heap budget"):
            run_module(module,
                       budgets=ExecutionBudgets(max_heap_bytes=4096))

    def test_heap_budget_counts_live_bytes(self):
        module = frontend("""
            int main() {
              for (int i = 0; i < 100; ++i) {
                char *p = malloc(1024);
                free(p);
              }
              return 0;
            }
        """)
        result = run_module(module,
                            budgets=ExecutionBudgets(max_heap_bytes=4096))
        assert result.return_value == 0  # freed memory is reusable budget

    def test_recursion_budget_is_a_trap_not_python_recursion(self):
        module = frontend("""
            int down(int n) { return down(n + 1); }
            int main() { return down(0); }
        """)
        with pytest.raises(BudgetExceeded, match="recursion depth"):
            run_module(module,
                       budgets=ExecutionBudgets(max_recursion_depth=64))

    def test_budgets_off_by_default(self):
        # No budget: the recursion runs up to the fixed call-depth
        # ceiling (``main`` plus ``down(n)`` .. ``down(0)``).
        module = frontend("""
            int down(int n) { if (n == 0) return 0; return down(n - 1); }
            int main() { return down(%d); }
        """ % (MAX_CALL_DEPTH - 2))
        assert run_module(module).return_value == 0


# -- simulated machine validation --------------------------------------------


class TestParallelMachineValidation:
    def test_zero_threads_rejected(self):
        with pytest.raises(WorkloadError, match="at least 1 thread"):
            ParallelMachine(threads=0)

    def test_negative_threads_rejected(self):
        with pytest.raises(WorkloadError):
            ParallelMachine(threads=-4)

    def test_negative_overhead_rejected(self):
        with pytest.raises(WorkloadError, match="region_startup"):
            ParallelMachine(region_startup=-1)
        with pytest.raises(WorkloadError, match="critical_handoff"):
            ParallelMachine(critical_handoff=-6)

    def test_valid_machine_still_simulates(self):
        machine = ParallelMachine(threads=2, region_startup=0,
                                  per_iteration_overhead=0,
                                  reduction_merge_per_thread=0,
                                  critical_handoff=0)
        assert simulate_parallel_for([10, 10], machine=machine) == 10


# -- CLI integration ---------------------------------------------------------


class TestCliResilience:
    @pytest.fixture()
    def source_file(self, tmp_path):
        path = tmp_path / "roi_loop.mc"
        path.write_text(ROI_LOOP)
        return str(path)

    def test_psec_with_event_budget(self, source_file, capsys):
        from repro.cli import main
        code = main(["psec", source_file, "--no-cache",
                     "--budget", "events-per-roi=8"])
        captured = capsys.readouterr()
        assert code == 0
        assert "degraded run" in captured.err
        assert "[degraded:" in captured.out

    def test_recommend_with_budgets(self, source_file, capsys):
        from repro.cli import main
        code = main(["recommend", source_file,
                     "--budget", "steps=100000000,depth=512"])
        assert code == 0
        assert "parallel for" in capsys.readouterr().out

    def test_budget_exhaustion_reports_tool_error(self, source_file,
                                                  capsys):
        from repro.cli import main
        code = main(["recommend", source_file, "--budget", "steps=100"])
        assert code == 1
        assert "instruction budget" in capsys.readouterr().err
