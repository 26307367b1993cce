"""The single percentile codepath shared by every latency summary.

Every percentile the system reports — topology stage latency, router
p50/p95/p99, histogram summaries, bench JSON — funnels through
:func:`nearest_rank`, so "p99" means the same thing in every snapshot.

The convention is the *nearest-rank* method on the sorted sample set:

    ``rank = max(1, ceil(q/100 * n))`` → the value at that 1-based rank.

It is deterministic (no interpolation, so tests can assert exact values
from known samples) and matches numpy's ``inverted_cdf`` method for
``q > 0``; ``q = 0`` returns the minimum.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["nearest_rank"]


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples``; ``0.0`` when empty.

    ``q`` is in [0, 100].  ``samples`` need not be sorted; sorting happens
    here, so callers keep their buffers append-only.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
