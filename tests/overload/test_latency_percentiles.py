"""Latency percentile tracking on ``Histogram`` and its surfacing in snapshots."""

import pytest

from repro.obs import Histogram
from repro.storm.metrics import TopologyMetrics


class TestLatencyStats:
    """The latency summary every component, scenario and recommender holds."""

    def test_empty_stats_report_zero(self):
        stats = Histogram("latency_seconds")
        assert stats.percentile(50) == 0.0
        assert stats.p50 == stats.p95 == stats.p99 == 0.0
        assert stats.mean == 0.0

    def test_single_sample_is_every_percentile(self):
        stats = Histogram("latency_seconds")
        stats.observe(0.25)
        assert stats.p50 == stats.p95 == stats.p99 == 0.25

    def test_nearest_rank_on_known_distribution(self):
        stats = Histogram("latency_seconds")
        for ms in range(1, 101):  # 1..100
            stats.observe(ms / 1000.0)
        assert stats.p50 == pytest.approx(0.050)
        assert stats.p95 == pytest.approx(0.095)
        assert stats.p99 == pytest.approx(0.099)
        assert stats.percentile(100) == pytest.approx(0.100)
        assert stats.percentile(0) == pytest.approx(0.001)  # nearest rank: min

    def test_percentile_is_order_independent(self):
        ordered = Histogram("latency_seconds")
        shuffled = Histogram("latency_seconds")
        values = [0.005, 0.001, 0.009, 0.003, 0.007]
        for v in sorted(values):
            ordered.observe(v)
        for v in values:
            shuffled.observe(v)
        for q in (50, 95, 99):
            assert ordered.percentile(q) == shuffled.percentile(q)

    def test_percentile_validates_quantile(self):
        stats = Histogram("latency_seconds")
        stats.observe(0.001)
        with pytest.raises(ValueError):
            stats.percentile(-1)
        with pytest.raises(ValueError):
            stats.percentile(101)

    def test_sample_reservoir_is_bounded(self):
        stats = Histogram("latency_seconds", sample_limit=100)
        for i in range(1000):
            stats.observe(float(i))
        assert len(stats._samples) <= 100
        assert stats.count == 1000  # aggregate counters keep exact totals
        assert stats.sum == sum(range(1000))
        assert stats.max == 999.0
        assert stats.mean == pytest.approx(sum(range(1000)) / 1000)


class TestMetricsSurfacing:
    def test_component_snapshot_includes_percentiles_and_queue_stats(self):
        metrics = TopologyMetrics()
        comp = metrics.component("bolt_a")
        for ms in (1, 2, 3, 4, 100):
            comp.record_processed(ms / 1000.0)
        comp.record_shed(2)
        comp.record_queue_depth(7)
        comp.record_queue_depth(3)

        snap = metrics.snapshot()["bolt_a"]
        assert snap["processed"] == 5
        assert snap["shed"] == 2
        assert snap["queue_depth"] == 3
        assert snap["max_queue_depth"] == 7
        assert snap["p99_latency_s"] == pytest.approx(0.100)

    def test_component_metrics_defaults(self):
        comp = TopologyMetrics().component("x")
        assert comp.shed == 0
        assert comp.queue_depth == 0
        assert comp.max_queue_depth == 0
