"""Unit tests for topology metrics: the registry-backed component view."""

import sys
import threading

import pytest

from repro.obs import Histogram, MetricsRegistry
from repro.storm import (
    Bolt,
    LocalExecutor,
    Spout,
    StreamTuple,
    ThreadedExecutor,
    TopologyBuilder,
    TopologyMetrics,
)
from tests.support.obs import counter_totals, registry_total


class TestLatencyStats:
    """The latency summary reads of a stand-alone ``Histogram``."""

    def test_empty(self):
        stats = Histogram("latency_seconds")
        assert stats.mean == 0.0
        assert stats.max == 0.0
        assert stats.count == 0

    def test_record_accumulates(self):
        stats = Histogram("latency_seconds")
        for value in (0.1, 0.3, 0.2):
            stats.observe(value)
        assert stats.count == 3
        assert stats.mean == pytest.approx(0.2)
        assert stats.max == pytest.approx(0.3)


def _run_in_four_threads(work) -> None:
    """Run ``work(0..3)`` concurrently with a switch interval short enough
    that an unlocked read-modify-write would lose updates."""
    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestComponentMetrics:
    def test_counters(self):
        metrics = TopologyMetrics().component("bolt")
        metrics.record_emit(3)
        metrics.record_processed(0.01)
        metrics.record_processed(0.02)
        metrics.record_failure()
        assert metrics.emitted == 3
        assert metrics.processed == 2
        assert metrics.failed == 1

    def test_thread_safety(self):
        metrics = TopologyMetrics().component("bolt")

        def work(worker):
            for _ in range(500):
                metrics.record_processed(0.001)
                metrics.record_emit()

        _run_in_four_threads(work)
        assert metrics.processed == 2000
        assert metrics.emitted == 2000
        assert metrics.latency.count == 2000

    def test_queue_depth_high_water_under_contention(self):
        metrics = TopologyMetrics().component("bolt")

        def work(offset):
            for depth in range(offset, 400, 4):
                metrics.record_queue_depth(depth)

        _run_in_four_threads(work)
        assert metrics.max_queue_depth == 399

    def test_view_reads_the_registry_series(self):
        registry = MetricsRegistry()
        metrics = TopologyMetrics(registry).component("bolt")
        metrics.record_emit(2)
        metrics.record_shed()
        emitted = registry_total(
            registry, "storm_tuples_emitted_total", component="bolt"
        )
        assert emitted == 2
        assert registry_total(
            registry, "storm_tuples_shed_total", component="bolt"
        ) == 1
        assert metrics.latency is registry.get(
            "storm_process_latency_seconds"
        ).labels(component="bolt")


class TestTopologyMetrics:
    def test_component_registry_is_stable(self):
        metrics = TopologyMetrics()
        a = metrics.component("a")
        assert metrics.component("a") is a

    def test_snapshot_shape(self):
        metrics = TopologyMetrics()
        metrics.component("x").record_processed(0.5)
        snap = metrics.snapshot()
        assert snap["x"]["processed"] == 1
        assert snap["x"]["mean_latency_s"] == pytest.approx(0.5)
        assert snap["x"]["max_latency_s"] == pytest.approx(0.5)

    def test_total_processed(self):
        metrics = TopologyMetrics()
        metrics.component("a").record_processed(0.1)
        metrics.component("b").record_processed(0.1)
        snapshot = metrics.snapshot()
        assert sum(row["processed"] for row in snapshot.values()) == 2


class _CountingSpout(Spout):
    def __init__(self) -> None:
        self._i = 0

    def next_tuple(self) -> StreamTuple | None:
        if self._i >= 40:
            return None
        self._i += 1
        return StreamTuple({"k": self._i % 4, "v": self._i})


class _FanOutBolt(Bolt):
    def process(self, tup, collector):
        collector.emit({"k": tup["k"], "v": tup["v"]})
        collector.emit({"k": tup["k"], "v": -tup["v"]})


class _SinkBolt(Bolt):
    def process(self, tup, collector):
        pass


_COUNTER_OF = {
    "emitted": "storm_tuples_emitted_total",
    "processed": "storm_tuples_processed_total",
    "failed": "storm_tuple_failures_total",
    "shed": "storm_tuples_shed_total",
}


@pytest.mark.parametrize(
    "executor_cls", [LocalExecutor, ThreadedExecutor], ids=["local", "threaded"]
)
def test_snapshot_equals_own_registry_without_obs(executor_cls):
    """With no ``obs`` the run still counts in a registry — its own — and
    ``snapshot()`` reports exactly what that registry holds."""
    builder = TopologyBuilder()
    builder.set_spout("spout", _CountingSpout)
    builder.set_bolt("fan", _FanOutBolt, parallelism=2).fields_grouping(
        "spout", ["k"]
    )
    builder.set_bolt("sink", _SinkBolt, parallelism=2).fields_grouping("fan", ["v"])
    metrics = executor_cls(builder.build()).run()

    snapshot = metrics.snapshot()
    totals = counter_totals(metrics.registry)
    assert set(snapshot) == {"spout", "fan", "sink"}
    assert snapshot["sink"]["processed"] == 80
    for component, row in snapshot.items():
        for field, counter in _COUNTER_OF.items():
            assert row[field] == totals[f"{counter}{{component={component}}}"]
        latency = metrics.registry.get("storm_process_latency_seconds").labels(
            component=component
        )
        assert latency.count == row["processed"]
        assert row["mean_latency_s"] == latency.mean
        assert row["max_latency_s"] == latency.max
        assert row["p99_latency_s"] == latency.p99
