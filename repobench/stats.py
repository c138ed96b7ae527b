"""Statistics helpers shared by every workload of the benchmark.

Every timed metric is a statistic over many samples, never a single
reading, and every statistic refuses an input it cannot honestly
summarize: a percentile needs at least ``MIN_TAIL`` samples beyond it, a
geometric mean needs positive values.
"""

from __future__ import annotations

import math

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


def median(values) -> float:
    """Median of the values in sorted order; the two middle values are
    averaged when the count is even (the inclusive 50th percentile)."""
    return percentile(values, 50.0, min_tail=0)


def percentile(values, q: float, min_tail: int = MIN_TAIL) -> float:
    """Inclusive ``q``-th percentile (linear interpolation between ranks).

    Raises ``ValueError`` unless at least ``min_tail`` samples lie
    beyond it, i.e. ``len(values) * (1 - q / 100) >= min_tail``: a p90
    needs 100 samples, a p99 1000.
    """
    ordered = sorted(values)
    count = len(ordered)
    if not count:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    beyond = count * (1.0 - q / 100.0)
    if beyond + 1e-9 < min_tail:
        raise ValueError(
            f"p{q:g} of {count} samples leaves {beyond:.1f} beyond it; "
            f"need at least {min_tail}"
        )
    rank = (count - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values) -> float:
    """Geometric mean; raises ``ValueError`` on an empty input or on any
    value that is zero, negative or not finite."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of no values")
    for value in values:
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"geometric mean needs positive values, got {value}")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps
    counted once."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of ``[start, end]`` its child
    spans cover.  Children may overlap each other (spans from several
    worker threads under one batch span); their union is subtracted
    once, clipped to the parent's interval."""
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
        if child_end > start and child_start < end
    ]
    return (end - start) - union_length(clipped)
