"""The unified percentile codepath: one convention, everywhere.

Every latency summary in the system (Histogram, bench JSON) funnels
through ``repro.obs.percentiles.nearest_rank``.  These tests pin the
convention itself — nearest-rank equals numpy's ``inverted_cdf`` for
q > 0 — and that every ``Histogram`` read agrees with it exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, nearest_rank


def test_empty_samples_return_zero():
    assert nearest_rank([], 50.0) == 0.0


def test_out_of_range_quantile_rejected():
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101.0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], -0.1)


def test_known_values():
    samples = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert nearest_rank(samples, 5.0) == 15.0
    assert nearest_rank(samples, 30.0) == 20.0
    assert nearest_rank(samples, 40.0) == 20.0
    assert nearest_rank(samples, 50.0) == 35.0
    assert nearest_rank(samples, 100.0) == 50.0


def test_unsorted_input_is_sorted_internally():
    samples = [9.0, 1.0, 5.0]
    assert nearest_rank(samples, 50.0) == 5.0
    assert samples == [9.0, 1.0, 5.0]  # caller's buffer untouched


@given(
    st.lists(
        st.floats(
            min_value=0.0,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=300,
    ),
    st.floats(min_value=0.001, max_value=100.0),
)
def test_matches_numpy_inverted_cdf(samples, q):
    """Regression vs numpy: nearest-rank == ``inverted_cdf`` for q > 0."""
    ours = nearest_rank(samples, q)
    theirs = float(np.percentile(samples, q, method="inverted_cdf"))
    assert math.isclose(ours, theirs, rel_tol=0.0, abs_tol=0.0)


def test_q_zero_returns_minimum():
    assert nearest_rank([3.0, 1.0, 2.0], 0.0) == 1.0


@given(
    st.lists(
        st.floats(
            min_value=0.0,
            max_value=10.0,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=200,
    )
)
def test_histogram_reads_agree_with_nearest_rank(samples):
    """One codepath: ``percentile``, the ``p50``/``p95``/``p99`` reads and
    the exported ``state()`` all answer what ``nearest_rank`` answers."""
    hist = MetricsRegistry().histogram("lat_seconds", "x")
    for s in samples:
        hist.observe(s)
    for q in (0.0, 50.0, 90.0, 95.0, 99.0, 100.0):
        assert hist.percentile(q) == nearest_rank(samples, q)
    state = hist.state()
    assert hist.p50 == state["p50"] == nearest_rank(samples, 50.0)
    assert hist.p95 == state["p95"] == nearest_rank(samples, 95.0)
    assert hist.p99 == state["p99"] == nearest_rank(samples, 99.0)
    assert hist.max == state["max"] == max(samples)
