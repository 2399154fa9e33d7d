"""Order statistics shared by run.py and compare.py."""
from __future__ import annotations

import statistics
from typing import Sequence

TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND values above it, and its rank.

    Returns (value, percentile).  With too few values for that, the maximum
    is returned as the 100th percentile.
    """
    xs = sorted(values)
    k = len(xs) - 1 - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def iqr(values: Sequence[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1
