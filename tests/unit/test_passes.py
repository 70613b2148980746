"""Unit tests for the pass-manager layer (registry, caching, invalidation,
per-pass observability)."""

import pytest

from repro.compiler.driver import frontend
from repro.passes import (
    AnalysisManager,
    Pass,
    PassManager,
    PipelineContext,
    UnknownPassError,
    create_pass,
    parse_pipeline,
    registered_alias_names,
    registered_pass_names,
)

SOURCE = """
int work(int n) {
  int i, sum;
  sum = 0;
  for (i = 0; i < n; ++i) {
    #pragma carmot roi abstraction(parallel_for)
    { sum = sum + i; }
  }
  return sum;
}
int main() { print_int(work(10)); return 0; }
"""


@pytest.fixture()
def module():
    return frontend(SOURCE, "passes_test")


# ---------------------------------------------------------------------------
# Registry + pipeline parsing
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_carmot_passes_registered(self):
        names = registered_pass_names()
        for expected in ("callgraph-o3", "selective-mem2reg",
                         "fixed-classification", "aggregation",
                         "subsequent-accesses", "pin-reduction",
                         "out-of-roi-suppression", "instrument",
                         "naive-instrument", "o3", "mem2reg", "cleanup"):
            assert expected in names

    def test_aliases_registered(self):
        assert {"carmot", "naive", "baseline"} <= set(
            registered_alias_names()
        )

    def test_create_unknown_pass_lists_registered_names(self):
        with pytest.raises(UnknownPassError) as exc:
            create_pass("does-not-exist")
        message = str(exc.value)
        assert "does-not-exist" in message
        assert "instrument" in message  # the error teaches the valid names
        assert "carmot" in message      # ... and the aliases

    def test_carmot_alias_is_the_paper_order(self):
        assert parse_pipeline("carmot") == [
            "callgraph-o3", "selective-mem2reg", "fixed-classification",
            "aggregation", "subsequent-accesses", "pin-reduction",
            "out-of-roi-suppression", "instrument",
        ]

    def test_parse_negation_removes_pass(self):
        names = parse_pipeline("carmot,-pin-reduction")
        assert "pin-reduction" not in names
        assert names == [n for n in parse_pipeline("carmot")
                         if n != "pin-reduction"]

    def test_parse_negation_of_unknown_pass_raises(self):
        with pytest.raises(UnknownPassError):
            parse_pipeline("carmot,-no-such-pass")

    def test_parse_unknown_token_raises(self):
        with pytest.raises(UnknownPassError, match="registered passes"):
            parse_pipeline("carmot,bogus")

    def test_parse_accepts_sequences(self):
        assert parse_pipeline(["o3"]) == ["o3"]


# ---------------------------------------------------------------------------
# AnalysisManager caching + invalidation
# ---------------------------------------------------------------------------


class TestAnalysisCaching:
    def test_second_fetch_is_a_hit(self, module):
        am = AnalysisManager(module)
        first = am.get("points-to")
        assert (am.hits, am.misses) == (0, 1)
        assert am.get("points-to") is first
        assert (am.hits, am.misses) == (1, 1)

    def test_function_scope_keys_are_per_function(self, module):
        am = AnalysisManager(module)
        dom_work = am.get("dominators", module.functions["work"])
        dom_main = am.get("dominators", module.functions["main"])
        assert dom_work is not dom_main
        assert am.misses == 2 and am.hits == 0

    def test_nested_requests_are_cached(self, module):
        am = AnalysisManager(module)
        am.get("callgraph")  # computes points-to as a nested request
        am.get("points-to")
        assert am.hits == 1  # served from the nested computation

    def test_invalidate_single_analysis(self, module):
        am = AnalysisManager(module)
        points_to = am.get("points-to")
        callgraph = am.get("callgraph")
        am.invalidate("points-to")
        assert not am.cached("points-to")
        assert am.cached("callgraph")
        assert am.get("callgraph") is callgraph
        assert am.get("points-to") is not points_to

    def test_invalidate_all_with_preserve(self, module):
        am = AnalysisManager(module)
        regions = am.get("roi-regions")
        am.get("points-to")
        am.invalidate_all(preserve=("roi-regions",))
        assert am.cached("roi-regions")
        assert not am.cached("points-to")
        assert am.get("roi-regions") is regions

    def test_cfg_mutation_invalidates_dominators_and_loops(self):
        """fetch → CFG-mutating transform → fetch must return fresh
        results, not the pre-mutation trees."""
        module = frontend(
            """
            int main() {
              int x;
              x = 0;
              if (1) { x = x + 1; } else { x = x + 2; }
              print_int(x);
              return 0;
            }
            """,
            "cfg_test",
        )
        fn = module.functions["main"]
        am = AnalysisManager(module)
        dom_before = am.get("dominators", fn)
        loops_before = am.get("loops", fn)
        blocks_before = len(fn.blocks)

        pm = PassManager(["o3"])  # folds the constant branch, drops blocks
        pm.run(module, am)

        assert not am.cached("dominators", fn)
        assert not am.cached("loops", fn)
        dom_after = am.get("dominators", fn)
        loops_after = am.get("loops", fn)
        assert dom_after is not dom_before
        assert loops_after is not loops_before
        # The fresh dominator tree really describes the mutated CFG.
        assert len(fn.blocks) < blocks_before
        for block in fn.blocks:
            assert dom_after.dominates(fn.entry, block)

    def test_invalidate_function_drops_module_scope_too(self, module):
        work = module.functions["work"]
        main = module.functions["main"]
        am = AnalysisManager(module)
        am.get("dominators", work)
        dom_main = am.get("dominators", main)
        am.get("points-to")
        am.invalidate_function(work)
        assert not am.cached("dominators", work)
        assert not am.cached("points-to")  # module scope may embed `work`
        assert am.get("dominators", main) is dom_main


# ---------------------------------------------------------------------------
# PassManager behavior + observability
# ---------------------------------------------------------------------------


class _PlanOnly(Pass):
    name = "test-plan-only"

    def run(self, module, am, ctx):
        am.get("points-to")
        return False


class _MutatingNoChange(Pass):
    name = "test-mutating-unchanged"
    mutates_ir = True

    def run(self, module, am, ctx):
        return False  # declared mutating, but reports no change


class TestPassManager:
    def test_plan_only_pass_keeps_cache_warm(self, module):
        am = AnalysisManager(module)
        am.get("points-to")
        PassManager([_PlanOnly()]).run(module, am)
        assert am.cached("points-to")

    def test_unchanged_mutating_pass_keeps_cache(self, module):
        am = AnalysisManager(module)
        am.get("points-to")
        PassManager([_MutatingNoChange()]).run(module, am)
        assert am.cached("points-to")

    def test_report_attributes_requests_to_passes(self, module):
        am = AnalysisManager(module)
        report = PassManager([_PlanOnly(), _PlanOnly()]).run(module, am)
        first, second = report.runs
        assert (first.cache_misses, first.cache_hits) == (1, 0)
        assert (second.cache_misses, second.cache_hits) == (0, 1)
        assert first.analyses_used() == ["points-to"]
        assert report.hits_for_analysis("points-to") == 1
        assert report.analysis_summary()["points-to"] == (1, 1)

    def test_ir_delta_recorded(self, module):
        report = PassManager(["o3"]).run(module)
        stats = report.stats_for("o3")
        assert stats is not None
        assert stats.changed
        assert stats.instr_delta < 0  # -O3 shrinks this program

    def test_render_mentions_every_pass(self, module):
        report = PassManager(["mem2reg", "cleanup"]).run(module)
        text = report.render()
        assert "mem2reg" in text and "cleanup" in text
        assert "analysis cache" not in text  # no analyses were requested

    def test_carmot_pipeline_reuses_cached_analyses(self, module):
        ctx = PipelineContext(policy=_policy())
        report = PassManager(parse_pipeline("carmot"), ctx).run(module)
        assert report.total_hits >= 1
        assert report.hits_for_analysis("dominators") \
            + report.hits_for_analysis("points-to") >= 1


def _policy():
    from repro.runtime.config import policy_for

    return policy_for("parallel_for")
