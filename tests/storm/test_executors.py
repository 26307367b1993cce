"""Tests for both executors: delivery semantics, grouping honoured,
multi-stage pipelines, failure handling, metrics."""

import threading
import time

import pytest

from repro.errors import ComponentError
from repro.storm import (
    Bolt,
    Collector,
    LocalExecutor,
    Spout,
    StreamTuple,
    ThreadedExecutor,
    TopologyBuilder,
)
from tests.support.faults import unaccounted


class ListSpout(Spout):
    """Emits one tuple per item of a shared list."""

    def __init__(self, items):
        self._items = list(items)
        self._pos = 0

    def next_tuple(self):
        if self._pos >= len(self._items):
            return None
        item = self._items[self._pos]
        self._pos += 1
        return StreamTuple({"value": item})


class CollectBolt(Bolt):
    """Appends every received value to a shared, lock-protected list."""

    sink: list
    lock = threading.Lock()

    def __init__(self, sink, worker_tag=None):
        self.sink = sink
        self.worker_index = None

    def prepare(self, ctx):
        self.worker_index = ctx.worker_index

    def process(self, tup, collector):
        with CollectBolt.lock:
            self.sink.append((self.worker_index, tup["value"]))


class DoubleBolt(Bolt):
    """Emits value*2 downstream."""

    def process(self, tup, collector):
        collector.emit({"value": tup["value"] * 2})


class ExplodingBolt(Bolt):
    def process(self, tup, collector):
        raise RuntimeError("boom")


def _simple_topology(items, sink, parallelism=1):
    builder = TopologyBuilder()
    spout = ListSpout(items)
    builder.set_spout("src", lambda: spout)
    builder.set_bolt(
        "collect", lambda: CollectBolt(sink), parallelism=parallelism
    ).fields_grouping("src", ["value"])
    return builder.build()


@pytest.mark.parametrize("executor_cls", [LocalExecutor, ThreadedExecutor])
class TestDelivery:
    def test_every_tuple_delivered_once(self, executor_cls):
        sink = []
        topo = _simple_topology(range(100), sink)
        executor_cls(topo).run()
        assert sorted(v for _, v in sink) == list(range(100))

    def test_two_stage_pipeline(self, executor_cls):
        sink = []
        builder = TopologyBuilder()
        spout = ListSpout(range(50))
        builder.set_spout("src", lambda: spout)
        builder.set_bolt("double", DoubleBolt).fields_grouping("src", ["value"])
        builder.set_bolt("collect", lambda: CollectBolt(sink)).fields_grouping("double", ["value"])
        executor_cls(builder.build()).run()
        assert sorted(v for _, v in sink) == [2 * i for i in range(50)]

    def test_fields_grouping_single_worker_per_key(self, executor_cls):
        sink = []
        builder = TopologyBuilder()
        items = [f"key{i % 7}" for i in range(140)]
        spout = ListSpout(items)
        builder.set_spout("src", lambda: spout)
        builder.set_bolt(
            "collect", lambda: CollectBolt(sink), parallelism=4
        ).fields_grouping("src", ["value"])
        executor_cls(builder.build()).run()
        workers_per_key = {}
        for worker, value in sink:
            workers_per_key.setdefault(value, set()).add(worker)
        assert all(len(ws) == 1 for ws in workers_per_key.values())
        assert len(sink) == 140

    def test_fanout_to_multiple_bolts(self, executor_cls):
        sink_a, sink_b = [], []
        builder = TopologyBuilder()
        spout = ListSpout(range(30))
        builder.set_spout("src", lambda: spout)
        builder.set_bolt("a", lambda: CollectBolt(sink_a)).fields_grouping("src", ["value"])
        builder.set_bolt("b", lambda: CollectBolt(sink_b)).fields_grouping("src", ["value"])
        executor_cls(builder.build()).run()
        assert len(sink_a) == 30
        assert len(sink_b) == 30

    def test_metrics_counts(self, executor_cls):
        sink = []
        topo = _simple_topology(range(25), sink)
        metrics = executor_cls(topo).run()
        snap = metrics.snapshot()
        assert snap["src"]["emitted"] == 25
        assert snap["collect"]["processed"] == 25
        assert snap["collect"]["failed"] == 0
        assert snap["collect"]["mean_latency_s"] >= 0

    def test_idle_components_appear_in_snapshot(self, executor_cls):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: ListSpout([]))
        builder.set_bolt("double", DoubleBolt).fields_grouping("src", ["value"])
        builder.set_bolt("collect", lambda: CollectBolt([])).fields_grouping("double", ["value"])
        snap = executor_cls(builder.build()).run().snapshot()
        assert list(snap) == ["src", "double", "collect"]
        assert all(stats["processed"] == 0 for stats in snap.values())

    def test_fail_fast_raises_component_error(self, executor_cls):
        builder = TopologyBuilder()
        spout = ListSpout(range(5))
        builder.set_spout("src", lambda: spout)
        builder.set_bolt("bad", ExplodingBolt).fields_grouping("src", ["value"])
        with pytest.raises(ComponentError, match="bad"):
            executor_cls(builder.build()).run()


class ForwardBolt(Bolt):
    def process(self, tup, collector):
        collector.emit({"value": tup["value"]})


class SleepBolt(Bolt):
    def process(self, tup, collector):
        time.sleep(0.0005)


class RaiseAtBolt(Bolt):
    """Raises on its ``at``-th tuple."""

    def __init__(self, at):
        self.at = at
        self.seen = 0

    def process(self, tup, collector):
        self.seen += 1
        if self.seen == self.at:
            raise RuntimeError(f"boom at tuple {self.seen}")


def _accounting_topology():
    """``src`` -> ``fwd`` x2 -> ``slow`` x2, plus ``bad`` x1 off ``src``."""
    builder = TopologyBuilder()
    spout = ListSpout(range(1000))
    builder.set_spout("src", lambda: spout)
    builder.set_bolt("fwd", ForwardBolt, parallelism=2).fields_grouping(
        "src", ["value"]
    )
    builder.set_bolt("slow", SleepBolt, parallelism=2).fields_grouping(
        "fwd", ["value"]
    )
    builder.set_bolt("bad", lambda: RaiseAtBolt(300)).fields_grouping(
        "src", ["value"]
    )
    return builder.build()


@pytest.mark.parametrize("executor_cls", [LocalExecutor, ThreadedExecutor])
class TestAbortAccounting:
    """A bolt exception aborts the run, and every delivery the run routed
    ends as ``processed``, ``failed`` or ``shed`` — none is lost."""

    def test_aborted_run_accounts_every_delivery(self, executor_cls):
        topology = _accounting_topology()
        executor = executor_cls(topology)
        with pytest.raises(ComponentError, match="bad"):
            executor.run()
        snap = executor.metrics.snapshot()
        assert snap["bad"]["failed"] == 1
        assert snap["bad"]["processed"] == 299
        assert unaccounted(topology, snap) == {}
        # Nothing is still working once run() has raised.
        time.sleep(0.05)
        assert executor.metrics.snapshot() == snap


class TestLocalExecutorSpecifics:
    def test_deterministic_worker_assignment(self):
        """Two identical runs produce identical (worker, value) sequences."""
        runs = []
        for _ in range(2):
            sink = []
            topo = _simple_topology(range(40), sink, parallelism=3)
            LocalExecutor(topo).run()
            runs.append(sink)
        assert runs[0] == runs[1]

    def test_spout_lifecycle_hooks(self):
        events = []

        class HookSpout(Spout):
            def open(self, ctx):
                events.append("open")

            def next_tuple(self):
                return None

            def close(self):
                events.append("close")

        class HookBolt(Bolt):
            def prepare(self, ctx):
                events.append("prepare")

            def process(self, tup, collector):  # pragma: no cover
                pass

            def cleanup(self):
                events.append("cleanup")

        builder = TopologyBuilder()
        builder.set_spout("s", HookSpout)
        builder.set_bolt("b", HookBolt).fields_grouping("s", ["value"])
        LocalExecutor(builder.build()).run()
        assert events == ["open", "prepare", "close", "cleanup"]


class TestThreadedExecutorSpecifics:
    def test_parallel_workers_all_used(self):
        """With enough distinct keys, fields grouping gives every worker work."""
        sink = []
        topo = _simple_topology(range(200), sink, parallelism=4)
        metrics = ThreadedExecutor(topo).run()
        assert {worker for worker, _ in sink} == {0, 1, 2, 3}
        assert metrics.component("collect").processed == 200

    def test_timeout_returns(self):
        class EndlessSpout(Spout):
            def next_tuple(self):
                return StreamTuple({"value": 1})

        sink = []
        builder = TopologyBuilder()
        builder.set_spout("src", EndlessSpout)
        builder.set_bolt("collect", lambda: CollectBolt(sink)).fields_grouping("src", ["value"])
        executor = ThreadedExecutor(builder.build())
        executor.run(timeout=0.3)  # must return, not hang
        assert sink  # processed something before the deadline
