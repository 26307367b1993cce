"""Unit and property tests for the registry instruments."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.obs import (
    DEFAULT_BUCKETS,
    REGISTRY_SCHEMA_VERSION,
    MetricsRegistry,
)
from tests.support.obs import counter_totals, registry_total


def test_counter_monotonic_and_negative_rejected():
    reg = MetricsRegistry()
    c = reg.counter("ops_total", "ops")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("queue_depth", "depth")
    g.set(7)
    g.inc(3)
    g.inc(-2)
    assert g.value == 8


def test_metric_names_validated():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("Bad-Name", "nope")


def test_kind_mismatch_rejected():
    reg = MetricsRegistry()
    reg.counter("thing_total", "x")
    with pytest.raises(ValueError):
        reg.gauge("thing_total", "x")


def test_labelnames_mismatch_rejected():
    reg = MetricsRegistry()
    reg.counter("ops_total", "x", labelnames=("op",))
    with pytest.raises(ValueError):
        reg.counter("ops_total", "x", labelnames=("other",))


def test_labelled_series_are_independent():
    reg = MetricsRegistry()
    c = reg.counter("ops_total", "x", labelnames=("op",))
    c.labels(op="get").inc(2)
    c.labels(op="put").inc(5)
    totals = counter_totals(reg)
    assert totals["ops_total{op=get}"] == 2
    assert totals["ops_total{op=put}"] == 5


def test_unlabelled_use_of_labelled_metric_rejected():
    reg = MetricsRegistry()
    c = reg.counter("ops_total", "x", labelnames=("op",))
    with pytest.raises(ValueError):
        c.inc()


def test_histogram_rejects_non_increasing_buckets():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.histogram("lat_seconds", "x", buckets=(0.1, 0.1, 0.2))


@given(
    st.lists(
        st.floats(
            min_value=0.0,
            max_value=100.0,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=200,
    )
)
def test_histogram_bucket_monotonicity(samples):
    """Cumulative bucket counts never decrease as ``le`` grows, and the
    final implicit +Inf bucket equals the observation count."""
    reg = MetricsRegistry()
    h = reg.histogram("lat_seconds", "x")
    for s in samples:
        h.observe(s)
    state = h.state()
    counts = [b["count"] for b in state["buckets"]]
    assert counts == sorted(counts)
    assert counts[-1] == len(samples)
    assert state["count"] == len(samples)
    assert math.isclose(state["sum"], sum(samples), rel_tol=1e-9, abs_tol=1e-9)
    # Every bucket's count is exactly the number of samples <= its bound.
    bounds = list(DEFAULT_BUCKETS) + [float("inf")]
    for bound, count in zip(bounds, counts):
        assert count == sum(1 for s in samples if s <= bound)


def test_histogram_percentiles_from_samples():
    reg = MetricsRegistry()
    h = reg.histogram("lat_seconds", "x")
    for v in [0.001, 0.002, 0.003, 0.004, 0.005]:
        h.observe(v)
    assert h.percentile(50.0) == 0.003
    assert h.percentile(100.0) == 0.005


def test_histogram_timer_uses_injected_clock():
    clock = VirtualClock(0.0)
    reg = MetricsRegistry(clock=clock)
    h = reg.histogram("lat_seconds", "x")
    with h.time():
        clock.advance(0.25)
    assert h.state()["sum"] == 0.25


def test_snapshot_is_immutable_and_detached():
    reg = MetricsRegistry()
    c = reg.counter("ops_total", "x")
    c.inc(3)
    snap1 = reg.snapshot()
    # Mutating the snapshot must not affect the registry...
    snap1["ops_total"]["series"][0]["value"] = 999
    snap2 = reg.snapshot()
    assert snap2["ops_total"]["series"][0]["value"] == 3
    # ...and further instrument activity must not mutate old snapshots.
    c.inc()
    assert snap2["ops_total"]["series"][0]["value"] == 3


def test_to_json_schema_versioned():
    import json

    reg = MetricsRegistry()
    reg.counter("ops_total", "x").inc()
    doc = json.loads(reg.to_json())
    assert doc["schema_version"] == REGISTRY_SCHEMA_VERSION
    assert "ops_total" in doc["metrics"]


def test_total_sums_matching_series():
    reg = MetricsRegistry()
    c = reg.counter("requests_total", "x", labelnames=("outcome", "arm"))
    c.labels(outcome="ok", arm="a").inc(3)
    c.labels(outcome="ok", arm="b").inc(4)
    c.labels(outcome="shed", arm="a").inc(2)
    assert registry_total(reg, "requests_total") == 9
    assert registry_total(reg, "requests_total", outcome="ok") == 7
    assert registry_total(reg, "requests_total", outcome="shed", arm="a") == 2
    assert registry_total(reg, "requests_total", outcome="shed", arm="b") == 0


def test_total_unknown_metric_is_zero():
    assert registry_total(MetricsRegistry(), "never_registered_total") == 0.0


def test_total_rejects_histograms_and_unknown_labels():
    reg = MetricsRegistry()
    reg.histogram("lat_seconds", "x")
    with pytest.raises(ValueError):
        registry_total(reg, "lat_seconds")
    reg.counter("ops_total", "x", labelnames=("op",))
    with pytest.raises(ValueError):
        registry_total(reg, "ops_total", nope="y")
