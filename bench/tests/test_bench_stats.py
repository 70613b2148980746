import pytest

from stats import (MIN_BEYOND, beyond, geomean, percentile, quartiles,
                   tail_level)


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 0.9) == pytest.approx(90.1)
    with pytest.raises(ValueError, match="10 samples beyond"):
        percentile(values[:99], 0.9)
    with pytest.raises(ValueError):
        percentile(values, 0.99)
    with pytest.raises(ValueError):
        percentile([], 0.5)


@pytest.mark.parametrize("n, level", [
    (20, 0.5), (40, 0.75), (60, 0.75), (100, 0.9), (999, 0.9), (1000, 0.99),
])
def test_tail_level_is_the_highest_with_ten_beyond(n, level):
    assert tail_level(n) == level
    assert beyond(n, level) >= MIN_BEYOND


def test_tail_level_refuses_tiny_samples():
    with pytest.raises(ValueError):
        tail_level(19)


def test_geomean_and_quartiles():
    assert geomean([1, 100]) == pytest.approx(10)
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert quartiles([1, 2, 3, 4, 5])[1] == 3
