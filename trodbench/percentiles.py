"""Percentiles and tail choice for per-class latency samples.

A tail is reported only where the sample supports it: the highest
percentile with at least ten samples beyond it. Percentiles use the
nearest-rank rule, so a p99 over 1,000 samples is the 990th smallest and
exactly ten samples lie above it.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples a percentile needs so that at least this many lie beyond it.
TAIL_SAMPLES = 10

#: Candidate tails, highest first.
TAILS = (99, 90)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (need not be sorted)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def min_samples_for(pct: int) -> int:
    """Smallest sample count with ``TAIL_SAMPLES`` samples beyond ``pct``."""
    return math.ceil(TAIL_SAMPLES * 100 / (100 - pct))


def tail_for(count: int) -> int | None:
    """The highest supported tail percentile for ``count`` samples."""
    for pct in TAILS:
        if count >= min_samples_for(pct):
            return pct
    return None


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as ``statistics.quantiles`` gives."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / q2 if q2 else math.inf
    return q2, q1, q3, rel
