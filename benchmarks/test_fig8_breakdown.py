"""Figure 8: per-optimization breakdown of the naive→CARMOT delta.

The paper reports that Pin-instrumentation reduction and the call-graph
(-O3) optimization have the highest impact, and groups optimizations 1-4
("removing redundant instrumentation") together."""

import pytest

from repro.harness import BREAKDOWN_GROUPS, figure8, render_breakdown
from repro.passes import parse_pipeline
from repro.workloads import ALL_WORKLOADS, workload

# The breakdown needs 6 compilations+runs per benchmark; a representative
# subset keeps the bench quick while covering all three suites.
SUBSET = [workload(n) for n in
          ("blackscholes", "swaptions", "cg", "is", "mg", "nab", "xz")]


@pytest.fixture(scope="module")
def rows():
    return figure8(SUBSET)


def test_figure8_rows_print(benchmark, rows, bench_json):
    result = benchmark.pedantic(
        lambda: figure8(SUBSET[:1]), rounds=1, iterations=1
    )
    assert len(result) == 1
    print()
    print(render_breakdown(rows))
    bench_json("fig8_breakdown", rows,
               subset=[w.name for w in SUBSET])


def test_shares_normalize_to_100(rows):
    for row in rows:
        assert sum(row.shares.values()) == pytest.approx(100.0, abs=0.5)


def test_four_groups_reported(rows):
    for row in rows:
        assert set(row.shares) == set(BREAKDOWN_GROUPS)


def test_breakdown_configs_are_named_pipelines():
    """Each Figure-8 configuration is a parseable -passes= description
    that drops passes of the full pipeline, in its order, plus runtime
    overrides.  Opt 7 is the runtime's callstack clustering: its group
    removes no pass and only switches clustering off; every other group
    removes passes and overrides nothing.  Together the groups remove
    every optimization pass, each once."""
    full = parse_pipeline("carmot")
    removed = []
    for group, (pipeline, overrides) in BREAKDOWN_GROUPS.items():
        names = parse_pipeline(pipeline)
        assert names == [n for n in full if n in names]
        missing = [n for n in full if n not in names]
        if group == "callstack_clustering":
            assert not missing
            assert overrides == {"callstack_clustering": False}
        else:
            assert missing and not overrides, group
        removed.extend(missing)
    assert sorted(removed) == sorted(n for n in full if n != "instrument")


def test_pin_and_callgraph_dominate_overall(rows):
    """Averaged over benchmarks, Pin reduction + call-graph O3 contribute
    the largest share of the optimization benefit (§5.1/Figure 8)."""
    avg = {g: sum(r.shares[g] for r in rows) / len(rows)
           for g in BREAKDOWN_GROUPS}
    top_two = avg["reduce_pin"] + avg["callgraph_o3"]
    assert top_two > avg["callstack_clustering"]
    assert top_two > 40.0


def test_every_group_contributes_somewhere(rows):
    for group in BREAKDOWN_GROUPS:
        assert any(r.shares[group] > 1.0 for r in rows), group


def test_full_carmot_remains_cheapest(rows):
    for row in rows:
        assert row.full_overhead < 10
