"""Failure-injection tests: partial component failures must not corrupt
the rest of the stream (fail_fast=False mode)."""

import pytest

from repro.storm import (
    Bolt,
    LocalExecutor,
    Spout,
    StreamTuple,
    ThreadedExecutor,
    TopologyBuilder,
)


class RangeSpout(Spout):
    def __init__(self, n):
        self.n = n
        self.pos = 0

    def next_tuple(self):
        if self.pos >= self.n:
            return None
        tup = StreamTuple({"i": self.pos})
        self.pos += 1
        return tup


class FlakyBolt(Bolt):
    """Fails on every third tuple, forwards the rest."""

    def process(self, tup, collector):
        if tup["i"] % 3 == 0:
            raise RuntimeError(f"injected failure at {tup['i']}")
        collector.emit({"i": tup["i"]})


class SinkBolt(Bolt):
    store: list

    def __init__(self, store):
        self.store = store

    def process(self, tup, collector):
        self.store.append(tup["i"])


@pytest.mark.parametrize("executor_cls", [LocalExecutor, ThreadedExecutor])
class TestPartialFailures:
    def test_surviving_tuples_flow_through(self, executor_cls):
        sink = []
        builder = TopologyBuilder()
        spout = RangeSpout(30)
        builder.set_spout("src", lambda: spout)
        builder.set_bolt("flaky", FlakyBolt).fields_grouping("src", ["i"])
        builder.set_bolt("sink", lambda: SinkBolt(sink)).fields_grouping("flaky", ["i"])
        metrics = executor_cls(builder.build(), fail_fast=False).run()

        expected = [i for i in range(30) if i % 3 != 0]
        assert sorted(sink) == expected
        snap = metrics.snapshot()
        assert snap["flaky"]["failed"] == 10
        assert snap["flaky"]["processed"] == 20
        assert snap["sink"]["failed"] == 0

    def test_downstream_of_failure_not_poisoned(self, executor_cls):
        """A failure must drop only that tuple, not wedge the worker."""
        sink = []
        builder = TopologyBuilder()
        spout = RangeSpout(9)
        builder.set_spout("src", lambda: spout)
        builder.set_bolt("flaky", FlakyBolt, parallelism=1).fields_grouping("src", ["i"])
        builder.set_bolt("sink", lambda: SinkBolt(sink)).fields_grouping("flaky", ["i"])
        executor_cls(builder.build(), fail_fast=False).run()
        # tuple 8 (late, after several failures) still arrives
        assert 8 in sink
