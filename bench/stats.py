"""Order statistics the benchmark reports, with their sample-count rules."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence, Tuple

#: A percentile is only reported when at least this many samples lie
#: beyond it; below that it is one or two outliers, not a tail.
MIN_BEYOND = 10

#: Candidate tail levels, highest first.
TAIL_LEVELS = (0.99, 0.9, 0.75, 0.5)


def beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie above the ``q`` quantile (rounded, so
    that 100 samples put exactly 10 above p90)."""
    return round(n * (1.0 - q), 6)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by linear interpolation between order statistics.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it.
    """
    n = len(values)
    if n == 0 or beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples give {beyond(n, q):g}"
        )
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_level(n: int) -> float:
    """The highest level in :data:`TAIL_LEVELS` that ``n`` samples support."""
    for q in TAIL_LEVELS:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    raise ValueError(f"{n} samples support no tail percentile")


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def medians_by(samples: Iterable[Tuple[object, float]]) -> List[float]:
    """Median of each group of ``(key, value)`` samples, in key order."""
    groups = {}
    for key, value in samples:
        groups.setdefault(key, []).append(value)
    return [statistics.median(groups[key]) for key in sorted(groups)]
