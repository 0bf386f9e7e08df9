"""Sample statistics with the tail rule used by every reported percentile."""

from __future__ import annotations

import statistics

# a percentile is a tail only when this many samples lie beyond it
MIN_BEYOND = 10


def median(samples):
    return statistics.median(samples)


def _rank(n, pct):
    # nearest rank, ceil(pct * n / 100), in integers so 90 % of 100 is exactly 90
    return -(-pct * n // 100)


def samples_beyond(n, pct):
    """Samples strictly above the nearest-rank pct-th percentile of n samples."""
    return n - _rank(n, pct)


def tail_percentile(samples, pct=90):
    """Nearest-rank pct-th percentile, or None when fewer than MIN_BEYOND
    samples lie beyond it (for the 90th that needs at least 100 samples)."""
    n = len(samples)
    if n == 0 or samples_beyond(n, pct) < MIN_BEYOND:
        return None
    return sorted(samples)[_rank(n, pct) - 1]


def min_samples(pct=90):
    """Smallest sample count for which tail_percentile(pct) is defined."""
    n = 1
    while samples_beyond(n, pct) < MIN_BEYOND:
        n += 1
    return n


def quartile_spread(values):
    """(q1, median, q3, spread): spread is q3 - q1 as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2
