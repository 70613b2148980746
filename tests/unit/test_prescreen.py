"""Unit tests for the prescreen pass: verdict shapes, rejections, the
StaticFacts sidecar format, probe.static plumbing, and reporting."""

import pytest

from repro.compiler import CarmotOptions, compile_carmot
from repro.compiler.prescreen import (
    PRESCREEN_MODES,
    StaticFact,
    StaticFacts,
    VERDICT_READ_ONLY,
    VERDICT_READ_THEN_WRITE,
    VERDICT_WRITE_FIRST,
)
from repro.errors import ReproError, RuntimeToolError
from repro.ir.instructions import ProbeStatic
from repro.ir.serialize import deserialize_module, serialize_module
from repro.runtime.psec_json import psec_sets_digest
from repro.session import Session
from tests.helpers.subjects import ARRAY_ROI_SOURCE, SCALAR_REDUCTION_SOURCE

#: Safe-tier showcase: every verdict shape in one ROI.  Per invocation
#: ``acc``/``i`` are written first (O→CO), ``k`` is only read (I→I),
#: and ``sum`` is read then unconditionally written (IO→TIO).
VERDICT_SOURCE = """
int main() {
    int sum;
    int k;
    sum = 0;
    k = 7;
    for (int r = 0; r < 4; ++r) {
        #pragma carmot roi abstraction(parallel_for)
        {
            int acc = 0;
            for (int i = 0; i < 8; ++i) {
                acc = acc + k;
            }
            sum = sum + acc;
        }
    }
    print_int(sum);
    return 0;
}
"""

#: ``odd`` is only written when the data cooperates — no static verdict
#: exists for a read-first PSE without a guaranteed write.
CONDITIONAL_SOURCE = """
int main() {
    int sum;
    int odd;
    sum = 0;
    odd = 0;
    for (int r = 0; r < 4; ++r) {
        #pragma carmot roi abstraction(parallel_for)
        {
            sum = sum + r;
            if (sum % 3 == 0) {
                odd = odd + 1;
            }
        }
    }
    print_int(sum + odd);
    return 0;
}
"""

#: A pragma'd inner loop re-entered by an outer loop: every outer
#: iteration emits ``roi.reset`` (a fresh epoch), so once-letters apply
#: per epoch, not once globally.
EPOCH_SOURCE = """
int main() {
    int sum;
    sum = 0;
    for (int t = 0; t < 3; ++t) {
        #pragma carmot roi abstraction(parallel_for)
        for (int i = 0; i < 4; ++i) {
            sum = sum + i;
        }
    }
    print_int(sum);
    return 0;
}
"""


def _facts_by_var(program):
    return {f.var_name: f for f in program.module.static_facts.facts}


class TestVerdicts:
    def test_all_three_shapes_proved(self):
        program = compile_carmot(VERDICT_SOURCE, name="verdicts",
                                 options=CarmotOptions(prescreen="safe"))
        by_var = _facts_by_var(program)
        assert (by_var["acc"].once_letters,
                by_var["acc"].steady_letters) == VERDICT_WRITE_FIRST
        assert (by_var["i"].once_letters,
                by_var["i"].steady_letters) == VERDICT_WRITE_FIRST
        assert (by_var["k"].once_letters,
                by_var["k"].steady_letters) == VERDICT_READ_ONLY
        assert (by_var["sum"].once_letters,
                by_var["sum"].steady_letters) == VERDICT_READ_THEN_WRITE
        assert all(f.kind == "slot" for f in by_var.values())

    @pytest.mark.parametrize("source, mode", [
        (VERDICT_SOURCE, "safe"),
        (SCALAR_REDUCTION_SOURCE, "safe"),
        (ARRAY_ROI_SOURCE, "aggressive"),
    ], ids=["verdicts", "scalar_loop", "array_walk"])
    def test_verdict_kernel_matches_dynamic(self, source, mode):
        _, off_rt = compile_carmot(source, name="verdicts").run()
        hybrid = compile_carmot(source, name="verdicts",
                                options=CarmotOptions(prescreen=mode))
        _, hyb_rt = hybrid.run()
        assert psec_sets_digest(off_rt.psecs) == psec_sets_digest(
            hyb_rt.psecs)
        # Everything in the ROI was claimed: zero dynamic access events.
        assert hyb_rt.stats.access_events == 0
        assert hyb_rt.stats.static_probe_events > 0

    def test_conditional_write_stays_dynamic(self):
        program = compile_carmot(CONDITIONAL_SOURCE, name="cond",
                                 options=CarmotOptions(prescreen="safe"))
        facts = program.module.static_facts
        claimed = {f.var_name for f in facts.facts} if facts else set()
        assert "odd" not in claimed
        _, off_rt = compile_carmot(CONDITIONAL_SOURCE, name="cond").run()
        _, hyb_rt = program.run()
        assert psec_sets_digest(off_rt.psecs) == psec_sets_digest(
            hyb_rt.psecs)
        # The conditional PSE still produces dynamic events.
        assert hyb_rt.stats.access_events > 0

    def test_epochs_resolved_per_reset(self):
        program = compile_carmot(EPOCH_SOURCE, name="epochs",
                                 options=CarmotOptions(prescreen="safe"))
        facts = program.module.static_facts
        assert facts is not None and len(facts) > 0
        _, off_rt = compile_carmot(EPOCH_SOURCE, name="epochs").run()
        _, hyb_rt = program.run()
        assert psec_sets_digest(off_rt.psecs) == psec_sets_digest(
            hyb_rt.psecs)

    def test_aggressive_element_fact_geometry(self):
        source = open("examples/roi_loop.mc").read()
        program = compile_carmot(
            source, name="roi_loop",
            options=CarmotOptions(prescreen="aggressive"))
        elements = [f for f in program.module.static_facts.facts
                    if f.kind == "elements"]
        assert len(elements) == 1
        fact = elements[0]
        assert fact.count == 16
        assert fact.start == 0
        assert fact.stride == 8
        assert fact.size == 8
        assert (fact.once_letters,
                fact.steady_letters) == VERDICT_READ_THEN_WRITE

    def test_off_mode_proves_nothing(self):
        program = compile_carmot(VERDICT_SOURCE, name="verdicts")
        assert program.module.static_facts is None
        assert not any(
            isinstance(i, ProbeStatic)
            for f in program.module.functions.values()
            for i in f.instructions()
        )

    def test_pipeline_text_defaults_to_safe_tier(self):
        session = Session(enabled=False)
        compiled = session.compile(
            VERDICT_SOURCE,
            "callgraph-o3,selective-mem2reg,prescreen,fixed-classification,"
            "aggregation,subsequent-accesses,pin-reduction,"
            "out-of-roi-suppression,instrument",
            name="verdicts",
        )
        facts = compiled.program.module.static_facts
        assert facts is not None
        assert facts.mode == "safe"


class TestSidecarFormat:
    def _facts(self):
        return StaticFacts(mode="aggressive", facts=[
            StaticFact(roi_id=0, kind="slot",
                       pse=("alloca", "main", "t1"), var_name="sum",
                       once_letters="IO", steady_letters="TIO", size=8,
                       sites=3, mode="safe"),
            StaticFact(roi_id=1, kind="elements",
                       pse=("alloca", "main", "t0"), var_name=None,
                       once_letters="IO", steady_letters="TIO", size=8,
                       start=8, stride=8, count=16, sites=2,
                       mode="aggressive"),
        ])

    def test_json_round_trip(self):
        facts = self._facts()
        assert StaticFacts.from_json(facts.to_json()) == facts

    def test_serialize_round_trip_and_digest_stability(self):
        facts = self._facts()
        text = facts.serialize()
        again = StaticFacts.deserialize(text)
        assert again == facts
        assert again.digest() == facts.digest()

    def test_foreign_format_rejected(self):
        with pytest.raises(ReproError):
            StaticFacts.from_json({"format": "something-else"})

    def test_version_mismatch_rejected(self):
        doc = self._facts().to_json()
        doc["version"] = -1
        with pytest.raises(ReproError, match="version"):
            StaticFacts.from_json(doc)

    def test_corrupt_text_rejected(self):
        with pytest.raises(ReproError):
            StaticFacts.deserialize("{not json")
        with pytest.raises(ReproError):
            StaticFacts.deserialize("[1, 2]")

    def test_modes_constant(self):
        assert PRESCREEN_MODES == ("off", "safe", "aggressive")


class TestProbeStaticPlumbing:
    def test_ir_serialize_round_trip(self):
        program = compile_carmot(VERDICT_SOURCE, name="verdicts",
                                 options=CarmotOptions(prescreen="safe"))
        module = program.module

        def probes(mod):
            return [
                (instr.roi_id, instr.fact_index)
                for fn in mod.functions.values()
                for instr in fn.instructions()
                if isinstance(instr, ProbeStatic)
            ]

        original = probes(module)
        assert original  # one probe anchor per claimed ROI
        restored = probes(deserialize_module(serialize_module(module)))
        assert restored == original

    def test_instrument_report_counts_static(self):
        program = compile_carmot(VERDICT_SOURCE, name="verdicts",
                                 options=CarmotOptions(prescreen="safe"))
        report = program.report
        assert report.static_probes > 0
        assert report.static_suppressed_probes > 0
        assert report.static_suppressed_probes <= report.suppressed_probes

    def test_missing_sidecar_raises(self):
        program = compile_carmot(VERDICT_SOURCE, name="verdicts",
                                 options=CarmotOptions(prescreen="safe"))
        program.module.static_facts = None
        with pytest.raises(RuntimeToolError, match="sidecar"):
            program.run()

    def test_pass_stats_extras_rendered(self):
        session = Session(enabled=False)
        compiled = session.compile(
            VERDICT_SOURCE, "carmot", name="verdicts",
            options=CarmotOptions(prescreen="safe"),
        )
        rendered = compiled.program.pass_report.render()
        assert "prescreen:" in rendered
        assert "slot_facts=" in rendered
        assert "sites_stripped=" in rendered
