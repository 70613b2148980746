"""Unit tests for the resilience subsystem: fault injection, budgets,
retries, and degraded-mode PSEC."""

import pytest

from repro.compiler import compile_carmot
from repro.errors import (
    BudgetExceeded,
    DegradedResult,
    FaultInjected,
    RuntimeToolError,
    TrapError,
    WorkloadError,
)
from repro.compiler.driver import frontend
from repro.parallel.executor import ParallelMachine, simulate_parallel_for
from repro.resilience import (
    ExecutionBudgets,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    parse_budget_spec,
)
from repro.runtime.pipeline import BatchingPipeline
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


def run_roi_loop(batch_size=16, **kwargs):
    program = compile_carmot(ROI_LOOP, name="roi_loop")
    result, runtime = program.run(batch_size=batch_size, **kwargs)
    return result, runtime


def sets_of(runtime):
    return {
        roi_id: {name: list(keys) for name, keys in psec.sets().items()}
        for roi_id, psec in runtime.psecs.items()
    }


# -- parsing ----------------------------------------------------------------


class TestFaultPlanParsing:
    def test_parse_full_syntax(self):
        plan = FaultPlan.parse("seed=42;crash@3;drop@5;slow@7:250;"
                               "mempressure@9;crash@11!;rate=0.25")
        assert plan.seed == 42
        assert plan.crash_rate == 0.25
        kinds = {(s.kind, s.seq) for s in plan.specs}
        assert (FaultKind.WORKER_CRASH, 3) in kinds
        assert (FaultKind.BATCH_DROP, 5) in kinds
        assert (FaultKind.MEMORY_PRESSURE, 9) in kinds
        slow = next(s for s in plan.specs if s.kind is FaultKind.SLOW_BATCH)
        assert slow.delay == 250
        persistent = next(s for s in plan.specs if s.seq == 11)
        assert persistent.persist

    def test_render_round_trip(self):
        text = "seed=7;crash@2;drop@3;slow@4:100"
        assert FaultPlan.parse(FaultPlan.parse(text).render()) == \
            FaultPlan.parse(text)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RuntimeToolError, match="unknown fault kind"):
            FaultPlan.parse("explode@3")
        # Batches never fold on a worker process, so there is no process
        # to kill: ``exit`` is not a fault kind.
        with pytest.raises(RuntimeToolError,
                           match="unknown fault kind 'exit'"):
            FaultPlan.parse("seed=3;exit@1")

    def test_unknown_kind_error_lists_valid_kinds(self):
        with pytest.raises(RuntimeToolError, match="mempressure"):
            FaultPlan.parse("explode@3")
        with pytest.raises(RuntimeToolError, match="crash"):
            FaultPlan.parse("explode@3")

    def test_malformed_spec_rejected(self):
        with pytest.raises(RuntimeToolError, match="bad fault spec"):
            FaultPlan.parse("crash3")
        # Malformed numbers name the bad spec instead of leaking a
        # ValueError.
        for text in ("seed=x", "rate=lots", "crash@", "slow@1:", "slow@x"):
            with pytest.raises(RuntimeToolError,
                               match=f"bad fault spec '{text}'"):
                FaultPlan.parse(f"seed=1;{text}")

    def test_negative_seq_rejected(self):
        with pytest.raises(RuntimeToolError):
            FaultSpec(FaultKind.WORKER_CRASH, -1)

    def test_bad_rate_rejected(self):
        with pytest.raises(RuntimeToolError):
            FaultPlan(crash_rate=1.5)


class TestBudgetSpecParsing:
    def test_parse_full_syntax(self):
        spec = parse_budget_spec(
            "steps=5000000,heap=1048576,depth=256,events-per-roi=20000,"
            "retries=2,backoff=50,degrade=1"
        )
        assert spec.vm == ExecutionBudgets(5_000_000, 1_048_576, 256)
        assert spec.runtime.max_retries == 2
        assert spec.runtime.retry_backoff == 50
        assert spec.runtime.degrade
        assert spec.runtime.max_events_per_roi == 20_000

    def test_unknown_key_rejected(self):
        with pytest.raises(RuntimeToolError, match="unknown budget key"):
            parse_budget_spec("fuel=9")

    @pytest.mark.parametrize("entry", ["queue=64", "policy=block",
                                       "policy=shed", "heartbeat=25",
                                       "worker-deadline=10000",
                                       "worker_deadline=750"])
    def test_queue_keys_rejected(self, entry):
        """The profiling pipeline has no queue and no worker processes to
        supervise: ``queue``/``policy``/``heartbeat``/``worker-deadline``
        are unknown budget keys, not silently ignored ones."""
        with pytest.raises(RuntimeToolError, match="unknown budget key"):
            parse_budget_spec(f"retries=1,{entry},degrade=1")

    def test_negative_value_rejected(self):
        with pytest.raises(RuntimeToolError):
            parse_budget_spec("steps=-1")

    def test_non_integer_value_rejected(self):
        with pytest.raises(RuntimeToolError, match="bad budget value"):
            parse_budget_spec("steps=")
        with pytest.raises(RuntimeToolError, match="bad budget value"):
            parse_budget_spec("steps=lots")

    def test_shed_requires_degrade(self):
        with pytest.raises(RuntimeToolError, match="requires degrade"):
            ResiliencePolicy(queue_policy="shed")

    def test_bad_policy_rejected(self):
        with pytest.raises(RuntimeToolError):
            ResiliencePolicy(queue_policy="panic")


# -- injector determinism ----------------------------------------------------


class TestInjectorDeterminism:
    def test_rate_crashes_are_seed_deterministic(self):
        plan = FaultPlan(seed=99, crash_rate=0.3)

        def crash_set(p):
            injector = FaultInjector(p)
            crashed = set()
            for seq in range(200):
                try:
                    injector.fire(seq, attempt=0)
                except FaultInjected:
                    crashed.add(seq)
            return crashed

        first = crash_set(plan)
        second = crash_set(plan)
        assert first == second
        assert first  # 0.3 over 200 draws fires at least once
        assert crash_set(FaultPlan(seed=100, crash_rate=0.3)) != first

    def test_scheduled_crash_fires_once_unless_persistent(self):
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec(FaultKind.WORKER_CRASH, 1),
            FaultSpec(FaultKind.WORKER_CRASH, 2, persist=True),
        )))
        with pytest.raises(FaultInjected):
            injector.fire(1, attempt=0)
        injector.fire(1, attempt=1)  # retry succeeds
        with pytest.raises(FaultInjected):
            injector.fire(2, attempt=0)
        with pytest.raises(FaultInjected):
            injector.fire(2, attempt=5)  # persistent: retries never help


# -- pipeline-level resilience ----------------------------------------------


def resilient_pipeline(plan=None, **kwargs):
    post = []
    degraded = []
    pipeline = BatchingPipeline(
        lambda b: post.extend(b.events),
        injector=FaultInjector(plan) if plan else None,
        on_degraded=lambda b, failure: degraded.append((b.seq, failure[0])),
        **kwargs,
    )
    return pipeline, post, degraded


def push_events(pipeline, n, batch_size=4):
    """Ship events 0..n-1 as consecutive ``batch_size``-event blocks."""
    for start in range(0, n, batch_size):
        pipeline.push_block(list(range(start, min(n, start + batch_size))))


class TestPipelineResilience:
    def test_retry_recovers_injected_crash(self):
        plan = FaultPlan(specs=(FaultSpec(FaultKind.WORKER_CRASH, 1),))
        pipeline, post, degraded = resilient_pipeline(plan, max_retries=1,
                                                      retry_backoff=10)
        push_events(pipeline, 12)
        pipeline.close()
        assert post == list(range(12))  # nothing lost
        assert pipeline.retries == 1
        assert pipeline.virtual_backoff == 10
        assert degraded == []

    def test_exhausted_retries_degrade(self):
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.WORKER_CRASH, 1, persist=True),
        ))
        pipeline, post, degraded = resilient_pipeline(plan, max_retries=2,
                                                      degrade=True)
        push_events(pipeline, 12)
        pipeline.close()
        assert degraded == [(1, "worker_crash")]
        assert post == [0, 1, 2, 3, 8, 9, 10, 11]  # batch 1 fell back
        assert pipeline.retries == 2
        assert pipeline.batches_degraded == 1

    def test_crash_without_degrade_raises(self):
        plan = FaultPlan(specs=(FaultSpec(FaultKind.WORKER_CRASH, 0),))
        pipeline, _, _ = resilient_pipeline(plan)
        with pytest.raises(FaultInjected):
            push_events(pipeline, 4)

    def test_drop_without_degrade_raises(self):
        plan = FaultPlan(specs=(FaultSpec(FaultKind.BATCH_DROP, 0),))
        pipeline, _, _ = resilient_pipeline(plan)
        with pytest.raises(RuntimeToolError, match="injected drop"):
            push_events(pipeline, 4)

    def test_slow_batch_charges_virtual_time(self):
        plan = FaultPlan(specs=(FaultSpec(FaultKind.SLOW_BATCH, 1,
                                          delay=250),))
        pipeline, post, _ = resilient_pipeline(plan)
        push_events(pipeline, 12)
        pipeline.close()
        assert post == list(range(12))
        assert pipeline.virtual_delay == 250
        assert pipeline.slow_batches == [(1, 250)]


# -- engine-level degraded-mode PSEC -----------------------------------------


class TestDegradedPsec:
    def test_no_fault_plan_is_bit_identical(self):
        _, clean_a = run_roi_loop()
        _, clean_b = run_roi_loop(resilience=ResiliencePolicy())
        assert sets_of(clean_a) == sets_of(clean_b)
        assert not clean_a.degraded and not clean_b.degraded
        assert clean_a.degradation.to_json() == clean_b.degradation.to_json()
        assert clean_a.degradation.to_json() == \
            '{"degraded":false,"records":[],"rois":{}}'

    def test_crash_without_retries_raises_mid_stream(self):
        plan = FaultPlan(specs=(FaultSpec(FaultKind.WORKER_CRASH, 1),))
        with pytest.raises(FaultInjected):
            run_roi_loop(fault_plan=plan)

    def test_crash_with_retries_completes_degraded(self):
        plan = FaultPlan(specs=(FaultSpec(FaultKind.WORKER_CRASH, 1),))
        result, runtime = run_roi_loop(
            fault_plan=plan,
            resilience=ResiliencePolicy(max_retries=1, degrade=True),
        )
        assert result.return_value == 0
        assert runtime.degraded
        psec = runtime.psecs[0]
        assert psec.degraded
        assert psec.degradation_reasons == ["worker_crash"]
        # A recovered retry loses nothing: sets stay exact.
        assert psec.sets_exact
        assert psec.use_callstacks_complete
        _, clean = run_roi_loop()
        assert sets_of(runtime) == sets_of(clean)

    def test_dropped_batch_yields_conservative_superset(self):
        plan = FaultPlan(specs=(FaultSpec(FaultKind.BATCH_DROP, 2),))
        _, degraded_rt = run_roi_loop(
            fault_plan=plan, resilience=ResiliencePolicy(degrade=True)
        )
        _, clean_rt = run_roi_loop()
        assert degraded_rt.degraded
        psec = degraded_rt.psecs[0]
        assert not psec.sets_exact
        assert not psec.use_callstacks_complete
        clean_sets = sets_of(clean_rt)[0]
        degraded_sets = sets_of(degraded_rt)[0]
        # Soundness: every PSE classified in the clean run is still
        # classified in the degraded run (possibly in a more conservative
        # set), never silently dropped.
        clean_keys = set().union(*(map(tuple, v)
                                   for v in clean_sets.values()))
        degraded_keys = set().union(*(map(tuple, v)
                                      for v in degraded_sets.values()))
        assert clean_keys <= degraded_keys
        # Conservative direction: input/output only grow; a PSE may move
        # Cloneable -> Transfer but never the other way.
        for name in ("input", "output"):
            assert set(map(tuple, clean_sets[name])) <= \
                set(map(tuple, degraded_sets[name]))
        assert set(map(tuple, degraded_sets["cloneable"])) <= \
            set(map(tuple, clean_sets["cloneable"]))

    def test_fault_determinism_same_seed_identical_reports(self):
        def run_once():
            plan = FaultPlan.parse("seed=7;crash@1;drop@2;slow@3:100")
            _, runtime = run_roi_loop(
                fault_plan=plan,
                resilience=ResiliencePolicy(max_retries=1, degrade=True),
            )
            return runtime.degradation.to_json(), sets_of(runtime)

        report_a, sets_a = run_once()
        report_b, sets_b = run_once()
        assert report_a == report_b  # byte-identical
        assert sets_a == sets_b

    def test_require_complete(self):
        plan = FaultPlan(specs=(FaultSpec(FaultKind.WORKER_CRASH, 1),))
        _, degraded_rt = run_roi_loop(
            fault_plan=plan,
            resilience=ResiliencePolicy(max_retries=1, degrade=True),
        )
        with pytest.raises(DegradedResult) as excinfo:
            degraded_rt.require_complete()
        assert excinfo.value.report is degraded_rt.degradation
        _, clean_rt = run_roi_loop()
        clean_rt.require_complete()  # no raise


class TestEventBudget:
    def test_budget_trip_degrades_but_stays_sound(self):
        _, budgeted = run_roi_loop(
            resilience=ResiliencePolicy(max_events_per_roi=20, degrade=True)
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
        module = frontend("""
            int down(int n) { if (n == 0) return 0; return down(n - 1); }
            int main() { return down(5000); }
        """)
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

    def test_psec_with_fault_plan(self, source_file, capsys):
        from repro.cli import main
        code = main(["psec", source_file, "--batch-size", "16",
                     "--budget", "retries=1,degrade=1",
                     "--fault-plan", "seed=7;crash@1;drop@2"])
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
