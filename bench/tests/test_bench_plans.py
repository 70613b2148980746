from collections import Counter

import pytest

from plans import MIN_BLOCKS, WORKLOADS, Item, blocks_for, make_plan, pairs

PROGRAMS = [f"p{i}" for i in range(15)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_is_balanced(name):
    spec = WORKLOADS[name]
    plan = make_plan(spec, PROGRAMS, seed=1234, blocks=3)
    assert len(plan) == 3 * 30 * len(spec.mix)
    expected = Counter()
    for program, kind in pairs(PROGRAMS):
        for variant in spec.mix:
            expected[Item(program, kind, variant)] += 3
    assert Counter(plan) == expected
    # Every block on its own is balanced, not just the whole plan.
    block = len(plan) // 3
    assert Counter(plan[:block]) == Counter(plan[block:2 * block])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_is_deterministic_per_seed(name):
    spec = WORKLOADS[name]
    first = make_plan(spec, PROGRAMS, seed=7, blocks=2)
    assert make_plan(spec, PROGRAMS, seed=7, blocks=2) == first
    other = make_plan(spec, PROGRAMS, seed=8, blocks=2)
    assert other != first
    assert Counter(other) == Counter(first)


def test_blocks_follow_seconds_with_a_floor():
    spec = WORKLOADS["cold_small"]
    assert blocks_for(spec, 10 * spec.nominal_block_s) == 10
    assert blocks_for(spec, 0.1) == MIN_BLOCKS
