"""Table 1: which PSEC components each abstraction needs — regenerated from
the recommender registry and checked cell by cell against the paper."""

import pytest

from repro.harness import table1
from repro.recommend import table1_requirements
from repro.runtime.config import NAIVE_POLICIES, POLICIES

#: The paper's Table 1, verbatim: abstraction -> (Sets, Use callstacks,
#: Reachability graph).
PAPER_TABLE1 = {
    "omp_parallel_for": (True, True, False),
    "omp_task": (True, False, False),
    "smart_pointers": (True, False, True),
    "stats": (True, False, False),
}


class TestTable1Cells:
    @pytest.mark.parametrize("paper_name", sorted(PAPER_TABLE1))
    def test_row_matches_paper(self, paper_name):
        req = table1_requirements()[paper_name]
        assert (req.sets, req.use_callstacks, req.reachability_graph) == \
            PAPER_TABLE1[paper_name]

    def test_exactly_the_paper_rows(self):
        """Role-driven recommenders carry no ``paper_name`` and must not
        leak into the regenerated table."""
        assert set(table1_requirements()) == set(PAPER_TABLE1)


class TestPoliciesFollowTable1:
    def test_only_parallel_for_tracks_use_callstacks(self):
        for name, policy in POLICIES.items():
            expected = name == "parallel_for"
            assert policy.track_use_callstacks == expected, name

    def test_only_smart_pointers_tracks_reachability(self):
        for name, policy in POLICIES.items():
            expected = name == "smart_pointers"
            assert policy.track_reachability == expected, name

    def test_carmot_smart_pointer_shortcut(self):
        """§5.2: CARMOT derives the smart-pointer Sets from allocations and
        escapes, so its policy skips per-access tracking — the naive
        (Table-1-literal) policy does not."""
        assert not POLICIES["smart_pointers"].track_sets
        assert NAIVE_POLICIES["smart_pointers"].track_sets


def test_table_renders():
    text = table1()
    assert "omp_parallel_for" in text
    assert "reachability" in text
