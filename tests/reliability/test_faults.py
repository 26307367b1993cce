"""Fault-injection harness tests: chaos must be deterministic."""

import pytest

from repro.kvstore import InMemoryKVStore
from repro.reliability import RetryPolicy, Supervisor
from repro.storm import (
    Bolt,
    Collector,
    ComponentContext,
    LocalExecutor,
    Spout,
    StreamTuple,
    TopologyBuilder,
)
from tests.support.faults import (
    ChaosBolt,
    FaultPlan,
    FlakyKVStore,
    InjectedFault,
    TransientKVError,
    wrap_topology,
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


class ForwardBolt(Bolt):
    def process(self, tup, collector):
        collector.emit({"i": tup["i"]})


class SinkBolt(Bolt):
    def __init__(self, sink):
        self.sink = sink

    def process(self, tup, collector):
        self.sink.append(tup["i"])


class TestFaultPlan:
    def test_validates_rates_and_periods(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_every={"b": 0})
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(duplicate_rate=-0.1)


class TestChaosBolt:
    def _run(self, bolt, n):
        bolt.prepare(ComponentContext("b", 0, 1))
        out = []
        for i in range(n):
            collector = Collector()
            try:
                bolt.process(StreamTuple({"i": i}), collector)
            except InjectedFault:
                out.append("crash")
                continue
            out.extend(tup["i"] for tup in collector.drain())
        return out

    def test_crash_schedule_is_periodic(self):
        plan = FaultPlan(crash_every={"b": 3})
        out = self._run(ChaosBolt(ForwardBolt(), "b", plan), 9)
        assert out == [0, 1, "crash", 3, 4, "crash", 6, 7, "crash"]

    def test_drop_and_duplicate_are_seed_deterministic(self):
        plan = FaultPlan(seed=7, drop_rate=0.2, duplicate_rate=0.2)
        first = self._run(ChaosBolt(ForwardBolt(), "b", plan), 50)
        second = self._run(ChaosBolt(ForwardBolt(), "b", plan), 50)
        assert first == second
        assert len(first) != 50  # some tuples dropped or doubled
        other_seed = self._run(
            ChaosBolt(ForwardBolt(), "b", FaultPlan(seed=8, drop_rate=0.2,
                                                    duplicate_rate=0.2)), 50
        )
        assert first != other_seed

    def test_duplicates_preserve_stream(self):
        plan = FaultPlan(seed=1, duplicate_rate=0.99)
        bolt = ChaosBolt(ForwardBolt(), "b", plan)
        bolt.prepare(ComponentContext("b", 0, 1))
        collector = Collector()
        bolt.process(StreamTuple({"i": 1}), collector)
        emitted = collector.drain()
        assert len(emitted) == 2
        assert emitted[0] == emitted[1]


class TestWrapTopology:
    def test_wrapped_topology_runs_under_supervision(self):
        sink = []
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: RangeSpout(30))
        builder.set_bolt("mid", ForwardBolt).fields_grouping("src", ["i"])
        builder.set_bolt("sink", lambda: SinkBolt(sink)).fields_grouping("mid", ["i"])
        chaotic = wrap_topology(
            builder.build(), FaultPlan(crash_every={"mid": 5})
        )
        supervisor = Supervisor(
            RetryPolicy(max_restarts=100, backoff_base=0.0),
            sleep=lambda s: None,
        )
        metrics = LocalExecutor(chaotic, supervisor=supervisor).run()
        assert sorted(sink) == list(range(30))
        assert metrics.snapshot()["mid"]["restarts"] > 0
        # The untouched original still runs clean.
        sink.clear()
        LocalExecutor(builder.build()).run()
        assert sorted(sink) == list(range(30))

    def test_spouts_are_not_wrapped(self):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: RangeSpout(1))
        builder.set_bolt("sink", lambda: SinkBolt([])).fields_grouping("src", ["i"])
        chaotic = wrap_topology(builder.build(), FaultPlan())
        assert chaotic.components["src"].factory().__class__ is RangeSpout
        assert isinstance(chaotic.components["sink"].factory(), ChaosBolt)


class TestFlakyKVStore:
    def test_error_schedule_is_periodic(self):
        store = FlakyKVStore(InMemoryKVStore(), error_every=3)
        outcomes = []
        for i in range(9):
            try:
                store.put(f"k{i}", i)
                outcomes.append("ok")
            except TransientKVError:
                outcomes.append("err")
        assert outcomes == ["ok", "ok", "err"] * 3
        assert store.errors_raised == 3

    def test_failed_operation_leaves_state_untouched(self):
        store = FlakyKVStore(InMemoryKVStore())
        store.put("k", 1)
        store.fail_next()
        with pytest.raises(TransientKVError):
            store.put("k", 2)
        assert store.get("k") == 1

    def test_fail_next_forces_errors(self):
        store = FlakyKVStore(InMemoryKVStore())
        store.fail_next(2)
        with pytest.raises(TransientKVError):
            store.get("a")
        with pytest.raises(TransientKVError):
            store.update("a", lambda x: x, default=0)
        assert store.get("a", "d") == "d"  # schedule exhausted
