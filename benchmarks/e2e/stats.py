"""Order statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; the median is always reported.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]):
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them; a
    single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def percentile(values: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank ``p``-th percentile, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    n = len(values)
    rank = math.ceil(n * p / 100.0)
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summary(values: Sequence[float]) -> Dict[str, float]:
    """The row stored for a group of samples: a median never travels
    without its quartiles and sample count."""
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}
