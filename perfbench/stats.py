"""Nearest-rank percentiles and the ten-samples-beyond rule."""

from __future__ import annotations

import math
from typing import Optional

#: A percentile is reported only if at least this many samples lie
#: beyond it; p99 therefore needs 1,000 samples.
SAMPLES_BEYOND = 10


def nearest_rank(ordered: list, fraction: float) -> float:
    """The nearest-rank percentile of an ascending, non-empty list."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def supported(count: int, fraction: float) -> bool:
    """Whether *count* samples leave ten beyond the *fraction* percentile."""
    return count - math.ceil(fraction * count) >= SAMPLES_BEYOND


def percentile(values: list, fraction: float) -> Optional[float]:
    """The nearest-rank percentile, or ``None`` when too few samples
    lie beyond it."""
    if not supported(len(values), fraction):
        return None
    return nearest_rank(sorted(values), fraction)


def median(values: list) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0
