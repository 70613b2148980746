"""Run-to-run determinism and multi-run merging.

Folding each event at its hook must give bit-identical PSECs run to
run; multi-run merging must follow the §4.2 rules on real profiles."""

from repro.compiler import compile_carmot, compile_naive
from repro.runtime import merge_psecs
from repro.runtime.psec_json import psec_sets_digest
from repro.vm import run_module
from repro.workloads import workload

SOURCE = workload("cg").test_source("openmp")


def _run_with(program, **config_kwargs):
    runtime, hooks = program.make_runtime(**config_kwargs)
    run_module(program.module, hooks=hooks)
    return runtime


class TestDeterminism:
    def test_repeat_runs_fold_identical_psecs(self):
        program = compile_carmot(SOURCE, name="cg")
        first = _run_with(program)
        second = _run_with(program)
        assert psec_sets_digest(first.psecs) == \
            psec_sets_digest(second.psecs)
        for roi_id, expected in first.psecs.items():
            actual = second.psecs[roi_id]
            assert list(actual.entries) == list(expected.entries)
            for key, entry in expected.entries.items():
                other = actual.entries[key]
                assert (other.letters, other.access_count, other.uses) == \
                    (entry.letters, entry.access_count, entry.uses)


class TestMultiRunMerge:
    def test_merging_identical_runs_is_idempotent_on_letters(self):
        program = compile_carmot(SOURCE, name="cg")
        first = _run_with(program)
        second = _run_with(program)
        for roi_id in first.psecs:
            merged = merge_psecs(first.psecs[roi_id], second.psecs[roi_id])
            merged.check_invariants()
            for key, entry in first.psecs[roi_id].entries.items():
                if entry.letters:
                    assert merged.classification_of(key) == entry.letters

    def test_merged_invocations_accumulate(self):
        program = compile_carmot(SOURCE, name="cg")
        first = _run_with(program)
        second = _run_with(program)
        for roi_id in first.psecs:
            merged = merge_psecs(first.psecs[roi_id], second.psecs[roi_id])
            assert merged.invocations == (
                first.psecs[roi_id].invocations
                + second.psecs[roi_id].invocations
            )


class TestProfilingDeterminism:
    def test_repeated_runs_identical(self):
        program = compile_naive(SOURCE, name="cg")
        a = _run_with(program)
        b = _run_with(program)
        for roi_id in a.psecs:
            sets_a = {k: sorted(map(str, v))
                      for k, v in a.psecs[roi_id].sets().items()}
            sets_b = {k: sorted(map(str, v))
                      for k, v in b.psecs[roi_id].sets().items()}
            assert sets_a == sets_b
