"""Differential testing: the bytecode VM against the tree-walk oracle.

The IR tree-walk in ``tests/helpers/treewalk.py`` is the differential
oracle for the register bytecode: on the golden examples (both runtime
folds), on seeded random MiniC programs, and under fault plans and
execution budgets, both engines must produce byte-identical profiles,
equal run results, and the same failure at the same virtual step.
"""

from pathlib import Path

import pytest

from repro.compiler import (
    compile_baseline,
    compile_carmot,
    compile_naive,
)
from repro.errors import BudgetExceeded
from repro.resilience import ResiliencePolicy
from repro.resilience.budgets import ExecutionBudgets
from repro.runtime.psec_json import serialize_profile
from tests.helpers.decoder import FOLDS, fold
from tests.helpers.treewalk import ENGINES, engine, run_treewalk
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


def _run(program, vm, **kwargs):
    with engine(vm):
        return program.run(**kwargs)


# -- golden examples ----------------------------------------------------------


@pytest.mark.parametrize("name", EXAMPLES)
@pytest.mark.parametrize("fold_name", FOLDS)
def test_golden_examples_identical_across_engines(name, fold_name):
    payloads = {}
    for vm in ENGINES:
        program = compile_carmot(_example_source(name), name=name)
        with fold(fold_name):
            result, runtime = _run(program, vm)
        payloads[vm] = (serialize_profile(runtime, result),
                        _run_state(result))
    assert payloads["treewalk"] == payloads["bytecode"]


@pytest.mark.parametrize("name", EXAMPLES)
def test_naive_mode_identical_across_engines(name):
    payloads = {}
    for vm in ENGINES:
        program = compile_naive(_example_source(name), name=name)
        result, runtime = _run(program, vm)
        payloads[vm] = (serialize_profile(runtime, result),
                        _run_state(result))
    assert payloads["treewalk"] == payloads["bytecode"]


# -- seeded random programs (generator shared via repro.workloads.fuzz) -------


@pytest.mark.parametrize("seed", range(12))
def test_random_programs_identical_across_engines(seed):
    source = _random_program(seed)
    program = compile_baseline(source, name=f"rand{seed}")
    ir = _run(program, "treewalk")[0]
    bc = program.run()[0]
    assert _run_state(ir) == _run_state(bc)


@pytest.mark.parametrize("seed", range(4))
def test_random_programs_unoptimized_pipeline(seed):
    """The naive pipeline skips mem2reg — every local stays an alloca, so
    this leg exercises the load/store/addr opcodes the optimized builds
    mostly promote away."""
    source = _random_program(100 + seed)
    payloads = {}
    for vm in ENGINES:
        program = compile_naive(source, "stats", name=f"rand{seed}")
        result, runtime = _run(program, vm)
        payloads[vm] = (serialize_profile(runtime, result),
                        _run_state(result))
    assert payloads["treewalk"] == payloads["bytecode"]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("fold_name", FOLDS)
def test_pointer_chase_identical_across_engines(seed, fold_name):
    """The pointer-chase family: every iteration's heap access depends
    on the previous iteration's load, so the chased container carries
    Transfer state — the data-dependent addressing path both engines
    must profile identically."""
    source = _random_pointer_chase_program(seed)
    payloads = {}
    for vm in ENGINES:
        program = compile_carmot(source, name=f"chase{seed}")
        with fold(fold_name):
            result, runtime = _run(program, vm)
        payloads[vm] = (serialize_profile(runtime, result),
                        _run_state(result))
    assert payloads["treewalk"] == payloads["bytecode"]
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
    oracle = _run_state(_run(program, "treewalk")[0])
    cold = _run_state(program.run()[0])
    warm = _run_state(program.run()[0])
    assert cold == oracle
    assert warm == oracle


@pytest.mark.parametrize("seed", range(6))
def test_tier2_reentry_instrumented_profiles(seed):
    """Cold and re-entered tier-2 runs of instrumented ROI programs
    produce the same serialized profile as the tree-walk oracle."""
    source = _random_roi_program(seed)
    program = compile_carmot(source, name=f"requick{seed}")

    def run(vm):
        result, runtime = _run(program, vm)
        return (serialize_profile(runtime, result), _run_state(result))

    oracle = run("treewalk")
    assert run("bytecode") == oracle  # cold: fused, quickens on entry
    assert run("bytecode") == oracle  # warm: fully quickened stream


# -- oracles against production ------------------------------------------------
#
# The tree-walk run folds through the recording oracle, the bytecode run
# through the flat-table kernel.


def _oracle_fold(vm):
    return fold("object" if vm == "treewalk" else "kernel")


@pytest.mark.parametrize("name", EXAMPLES)
def test_oracles_identical_to_production(name):
    def run(vm):
        program = compile_carmot(_example_source(name), name=name)
        with _oracle_fold(vm):
            result, runtime = _run(program, vm)
        return (runtime.degradation.to_json(),
                serialize_profile(runtime, result), _run_state(result))

    assert run("treewalk") == run("bytecode")


@pytest.mark.parametrize("name", ["roi_loop", "anneal_stats"])
def test_event_budget_identical_across_engines(name):
    def run(vm):
        program = compile_carmot(_example_source(name), name=name)
        with _oracle_fold(vm):
            result, runtime = _run(
                program, vm,
                resilience=ResiliencePolicy(max_events_per_roi=20),
            )
        return (runtime.degradation.to_json(),
                serialize_profile(runtime, result), _run_state(result))

    assert run("treewalk") == run("bytecode")


@pytest.mark.parametrize("max_steps", [10, 100, 1000, 5000])
def test_step_budget_trips_at_the_same_virtual_step(max_steps):
    source = _random_program(0)
    program = compile_baseline(source, name="budget")
    budgets = ExecutionBudgets(max_steps=max_steps)
    outcomes = {}
    for vm in ENGINES:
        try:
            result = _run(program, vm, budgets=budgets)[0]
            outcomes[vm] = ("completed", _run_state(result))
        except BudgetExceeded as err:
            outcomes[vm] = ("budget", str(err))
    assert outcomes["treewalk"] == outcomes["bytecode"]


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
    for vm in ENGINES:
        with pytest.raises(BudgetExceeded) as excinfo:
            _run(program, vm, budgets=budgets)
        messages[vm] = str(excinfo.value)
    assert messages["treewalk"] == messages["bytecode"]
    assert "recursion depth" in messages["treewalk"]


def test_instruction_counts_agree_with_trace_length():
    """One dispatch per trace line, and both engines land on the same
    final instruction count even though phi runs fold into one dispatch
    on the bytecode side."""
    import io

    from repro.vm import run_module

    program = compile_baseline(_random_program(1), name="trace")
    counts = {}
    for vm, run in (("treewalk", run_treewalk), ("bytecode", run_module)):
        stream = io.StringIO()
        result = run(program.module, trace_stream=stream)
        counts[vm] = (result.instructions, bool(stream.getvalue()))
    assert counts["treewalk"][0] == counts["bytecode"][0]
    assert counts["treewalk"][1] and counts["bytecode"][1]
