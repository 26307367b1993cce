"""ThreadedExecutor blocking backpressure and shutdown regression tests."""

import threading
import time

import pytest

from repro.storm import (
    Bolt,
    Collector,
    Spout,
    StreamTuple,
    ThreadedExecutor,
    TopologyBuilder,
)


class _CountingSpout(Spout):
    def __init__(self, n):
        self.n = n
        self._i = 0

    def next_tuple(self):
        if self._i >= self.n:
            return None
        self._i += 1
        return StreamTuple({"i": self._i})


class _SlowBolt(Bolt):
    """Processes slowly so the inbound queue fills up."""

    seen = None  # set per-test via class attribute

    def __init__(self, delay=0.0):
        self.delay = delay

    def process(self, tup, collector):
        if self.delay:
            time.sleep(self.delay)
        if _SlowBolt.seen is not None:
            _SlowBolt.seen.append(tup["i"])


class _FailingBolt(Bolt):
    def process(self, tup, collector):
        raise RuntimeError("boom")


def _topology(n_tuples, bolt_factory):
    builder = TopologyBuilder()
    builder.set_spout("src", lambda: _CountingSpout(n_tuples))
    builder.set_bolt("sink", bolt_factory).fields_grouping("src", ["i"])
    return builder.build()


class TestShutdownRegression:
    def test_queue_size_one_completes_shutdown(self):
        """Regression: the final sentinel put used to block forever on a
        full queue; queue_size=1 makes that certain to happen."""
        topo = _topology(50, lambda: _SlowBolt(delay=0.001))
        executor = ThreadedExecutor(topo, queue_size=1)
        done = threading.Event()
        result = {}

        def run():
            result["metrics"] = executor.run(timeout=30.0)
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert done.wait(timeout=20.0), "executor shutdown hung"
        assert result["metrics"].component("sink").processed == 50

    def test_queue_size_one_with_failing_bolt_does_not_hang(self):
        """A fail-fast abort with a full queue must still shut down: the
        spout's blocking put is interrupted and the sentinel placed."""
        topo = _topology(500, _FailingBolt)
        executor = ThreadedExecutor(topo, queue_size=1, fail_fast=True)
        done = threading.Event()

        def run():
            with pytest.raises(Exception):
                executor.run(timeout=30.0)
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert done.wait(timeout=20.0), "fail-fast shutdown hung"


class TestQueuePolicies:
    """The one queue policy: a full queue blocks the producer."""

    def _run_blocking(self):
        _SlowBolt.seen = []
        try:
            topo = _topology(200, lambda: _SlowBolt(delay=0.0005))
            metrics = ThreadedExecutor(topo, queue_size=2).run(timeout=30.0)
            return metrics, list(_SlowBolt.seen)
        finally:
            _SlowBolt.seen = None

    def test_block_policy_processes_everything(self):
        metrics, seen = self._run_blocking()
        assert metrics.component("sink").processed == 200
        assert sum(c["shed"] for c in metrics.snapshot().values()) == 0
        assert seen == list(range(1, 201))  # one worker: FIFO order kept

    def test_queue_depth_metrics_in_snapshot(self):
        metrics, _ = self._run_blocking()
        snap = metrics.snapshot()["sink"]
        assert snap["max_queue_depth"] >= 1
        assert snap["max_queue_depth"] <= 2
        assert snap["shed"] == 0
        assert "queue_depth" in snap
