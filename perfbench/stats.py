"""Percentiles with the sample-count rule, and run-to-run spread."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


def min_samples(percentile: float) -> int:
    """Fewest samples for which *percentile* has MIN_TAIL samples beyond it."""
    tail = 1.0 - percentile / 100.0
    return math.ceil(MIN_TAIL / tail - 1e-9) if tail > 0 else 0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile *q* (0-100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")
