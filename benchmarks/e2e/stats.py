"""Summary statistics shared by the runner, the workloads and the self-test.

Two rules from the benchmark's method live here so every number is
reduced the same way (a timing is always the plain percentile of the whole
sample it names; nothing is sliced, windowed or trimmed first):

* a timing is reported as a median plus *the highest percentile that
  still has at least ten samples beyond it* (:func:`top_percentile`), with
  the sample count next to it;
* the run-to-run spread of a metric is the distance between the first and
  third quartile of its values as a share of their median
  (:func:`spread`), the same figure the driver computes.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: Percentiles a timing may be reported at, highest first.
_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def top_percentile(n: int) -> float:
    """The highest ladder percentile with >= ``MIN_BEYOND`` samples beyond.

    ``n * (1 - p/100)`` samples lie beyond percentile ``p``; 200 samples
    support p95 (10 beyond) but not p99 (2 beyond).  Falls back to the
    median when even p75 is unsupported.
    """
    for pct in _LADDER:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary floating point.
        if round(n * (100.0 - pct), 6) >= MIN_BEYOND * 100:
            return pct
    return 50.0


def summarise(values: Sequence[float]) -> dict:
    """Median, p90, p95, p99 and the supported top percentile of a sample.

    The named percentiles are always computed; ``top`` says which
    percentile the sample size actually supports, so a reader can tell a
    p95 backed by 50 tail samples from one backed by 3.
    """
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": 0.0, "p90": 0.0, "p95": 0.0, "p99": 0.0,
                "top": 50.0, "top_value": 0.0}
    top = top_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "p90": percentile(values, 90.0),
        "p95": percentile(values, 95.0),
        "p99": percentile(values, 99.0),
        "top": top,
        "top_value": percentile(values, top),
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance of ``values`` as a share of their median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")
