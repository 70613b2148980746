"""Differential testing: the bytecode engine against the tree-walk oracle.

The IR tree-walk is kept as the differential oracle for the register
bytecode: on the golden examples (both runtime folds), on seeded
random MiniC programs, and under fault plans and execution budgets, both
engines must produce byte-identical profiles, equal run results, and the
same failure at the same virtual step.
"""

from pathlib import Path

import pytest

from repro.compiler import (
    CarmotOptions,
    compile_baseline,
    compile_carmot,
    compile_naive,
)
from repro.errors import BudgetExceeded
from repro.resilience import FaultPlan, ResiliencePolicy
from repro.resilience.budgets import ExecutionBudgets
from repro.runtime.psec_json import serialize_profile
from tests.helpers.decoder import FOLDS, fold
from repro.workloads.fuzz import (
    random_pointer_chase_program as _random_pointer_chase_program,
)
from repro.workloads.fuzz import random_program as _random_program
from repro.workloads.fuzz import random_roi_program as _random_roi_program

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = ["roi_loop", "stencil_calls", "anneal_stats"]


def _example_source(name: str) -> str:
    return (REPO / "examples" / f"{name}.mc").read_text()


def _run_state(result):
    return (result.output, result.cost, result.instructions,
            result.access_counts)


# -- golden examples ----------------------------------------------------------


@pytest.mark.parametrize("name", EXAMPLES)
@pytest.mark.parametrize("fold_name", FOLDS)
def test_golden_examples_identical_across_engines(name, fold_name):
    payloads = {}
    for vm in ("ir", "bytecode"):
        program = compile_carmot(_example_source(name), name=name)
        with fold(fold_name):
            result, runtime = program.run(vm=vm)
        payloads[vm] = (serialize_profile(runtime, result),
                        _run_state(result))
    assert payloads["ir"] == payloads["bytecode"]


@pytest.mark.parametrize("name", EXAMPLES)
def test_naive_mode_identical_across_engines(name):
    payloads = {}
    for vm in ("ir", "bytecode"):
        program = compile_naive(_example_source(name), name=name)
        result, runtime = program.run(vm=vm)
        payloads[vm] = (serialize_profile(runtime, result),
                        _run_state(result))
    assert payloads["ir"] == payloads["bytecode"]


# -- seeded random programs (generator shared via repro.workloads.fuzz) -------


@pytest.mark.parametrize("seed", range(12))
def test_random_programs_identical_across_engines(seed):
    source = _random_program(seed)
    program = compile_baseline(source, name=f"rand{seed}")
    ir = program.run(vm="ir")[0]
    bc = program.run(vm="bytecode")[0]
    assert _run_state(ir) == _run_state(bc)


@pytest.mark.parametrize("seed", range(4))
def test_random_programs_unoptimized_pipeline(seed):
    """The naive pipeline skips mem2reg — every local stays an alloca, so
    this leg exercises the load/store/addr opcodes the optimized builds
    mostly promote away."""
    source = _random_program(100 + seed)
    payloads = {}
    for vm in ("ir", "bytecode"):
        program = compile_naive(source, "stats", name=f"rand{seed}")
        result, runtime = program.run(vm=vm)
        payloads[vm] = (serialize_profile(runtime, result),
                        _run_state(result))
    assert payloads["ir"] == payloads["bytecode"]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("fold_name", FOLDS)
def test_pointer_chase_identical_across_engines(seed, fold_name):
    """The pointer-chase family: every iteration's heap access depends
    on the previous iteration's load, so the chased container carries
    Transfer state — the data-dependent addressing path both engines
    must profile identically."""
    source = _random_pointer_chase_program(seed)
    payloads = {}
    for vm in ("ir", "bytecode"):
        program = compile_carmot(source, name=f"chase{seed}")
        with fold(fold_name):
            result, runtime = program.run(vm=vm)
        payloads[vm] = (serialize_profile(runtime, result),
                        _run_state(result))
    assert payloads["ir"] == payloads["bytecode"]
    assert any(key[0] == "mem" and "T" in entry.letters
               for psec in runtime.psecs.values()
               for key, entry in psec.entries.items())


# -- tier-2 re-entry: quickening must stay observationally invisible ----------


@pytest.mark.parametrize("seed", range(12))
def test_tier2_reentry_identical_across_engines(seed):
    """Every seeded program goes through tier-2 twice in the same
    process: cold (fusion only — quickening happens as functions are
    first entered) and re-entered (the whole execution stream is already
    quickened).  Both runs must match the tree-walk oracle exactly."""
    source = _random_program(seed)
    program = compile_baseline(source, name=f"requick{seed}")
    oracle = _run_state(program.run(vm="ir")[0])
    cold = _run_state(program.run(vm="bytecode")[0])
    warm = _run_state(program.run(vm="bytecode")[0])
    assert cold == oracle
    assert warm == oracle


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("prescreen", ["off", "aggressive"])
def test_tier2_reentry_instrumented_profiles(seed, prescreen):
    """Cold and re-entered tier-2 runs of instrumented ROI programs —
    with and without the aggressive static prescreen — produce the same
    serialized profile as the tree-walk oracle."""
    source = _random_roi_program(seed)
    program = compile_carmot(source, name=f"requick{seed}",
                             options=CarmotOptions(prescreen=prescreen))

    def run(vm):
        result, runtime = program.run(vm=vm)
        return (serialize_profile(runtime, result), _run_state(result))

    oracle = run("ir")
    assert run("bytecode") == oracle  # cold: fused, quickens on entry
    assert run("bytecode") == oracle  # warm: fully quickened stream


# -- resilience: faults and budgets -------------------------------------------
#
# Oracle against production: the tree-walk run folds through the decoder
# oracle, the bytecode run through the flat-table kernel.


def _oracle_fold(vm):
    return fold("object" if vm == "ir" else "packed")


@pytest.mark.parametrize("name", EXAMPLES)
def test_fault_plan_degradation_identical_across_engines(name):
    def run(vm):
        program = compile_carmot(_example_source(name), name=name)
        with _oracle_fold(vm):
            result, runtime = program.run(
                vm=vm, batch_size=16,
                fault_plan=FaultPlan.parse(
                    "seed=7;crash@1;drop@2;slow@3:100"),
                resilience=ResiliencePolicy(max_retries=1, degrade=True),
            )
        return (runtime.degradation.to_json(),
                serialize_profile(runtime, result), _run_state(result))

    assert run("ir") == run("bytecode")


@pytest.mark.parametrize("name", ["roi_loop", "anneal_stats"])
def test_event_budget_identical_across_engines(name):
    def run(vm):
        program = compile_carmot(_example_source(name), name=name)
        with _oracle_fold(vm):
            result, runtime = program.run(
                vm=vm, batch_size=16,
                resilience=ResiliencePolicy(max_events_per_roi=20,
                                            degrade=True),
            )
        return (runtime.degradation.to_json(),
                serialize_profile(runtime, result), _run_state(result))

    assert run("ir") == run("bytecode")


@pytest.mark.parametrize("max_steps", [10, 100, 1000, 5000])
def test_step_budget_trips_at_the_same_virtual_step(max_steps):
    source = _random_program(0)
    program = compile_baseline(source, name="budget")
    budgets = ExecutionBudgets(max_steps=max_steps)
    outcomes = {}
    for vm in ("ir", "bytecode"):
        try:
            result = program.run(vm=vm, budgets=budgets)[0]
            outcomes[vm] = ("completed", _run_state(result))
        except BudgetExceeded as err:
            outcomes[vm] = ("budget", str(err))
    assert outcomes["ir"] == outcomes["bytecode"]


def test_recursion_budget_identical_across_engines():
    source = """
    int spin(int d) {
        if (d <= 0) { return 0; }
        return 1 + spin(d - 1);
    }
    int main() { print_int(spin(500)); return 0; }
    """
    program = compile_baseline(source, name="deep")
    budgets = ExecutionBudgets(max_recursion_depth=64)
    messages = {}
    for vm in ("ir", "bytecode"):
        with pytest.raises(BudgetExceeded) as excinfo:
            program.run(vm=vm, budgets=budgets)
        messages[vm] = str(excinfo.value)
    assert messages["ir"] == messages["bytecode"]
    assert "recursion depth" in messages["ir"]


def test_instruction_counts_agree_with_trace_length():
    """One dispatch per trace line, and both engines land on the same
    final instruction count even though phi runs fold into one dispatch
    on the bytecode side."""
    import io

    from repro.vm.interpreter import run_module

    program = compile_baseline(_random_program(1), name="trace")
    counts = {}
    for vm in ("ir", "bytecode"):
        stream = io.StringIO()
        result = run_module(program.module, vm=vm, trace_stream=stream)
        counts[vm] = (result.instructions, bool(stream.getvalue()))
    assert counts["ir"][0] == counts["bytecode"][0]
    assert counts["ir"][1] and counts["bytecode"][1]
