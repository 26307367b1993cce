"""Supervisor tests: bounded restarts, backoff, executor integration."""

import pytest

from repro.errors import ComponentError
from repro.reliability import RetryPolicy, Supervisor
from repro.storm import (
    Bolt,
    LocalExecutor,
    Spout,
    StreamTuple,
    ThreadedExecutor,
    TopologyBuilder,
)

_NO_SLEEP = lambda seconds: None  # noqa: E731 - test shorthand


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


class CrashOnceBolt(Bolt):
    """Crashes exactly once per cursed tuple, then lets it through.

    The retried delivery after a worker restart succeeds, so under
    supervision every tuple eventually goes through.  ``crashes`` is the
    shared memory of which tuples already crashed a worker (instances
    come and go as workers restart).
    """

    def __init__(self, sink, crashes, every=5):
        self.sink = sink
        self.crashes = crashes
        self.every = every

    def process(self, tup, collector):
        i = tup["i"]
        if i % self.every == 0 and i not in self.crashes:
            self.crashes.append(i)
            raise RuntimeError("worker croaked")
        self.sink.append(i)


class AlwaysFailBolt(Bolt):
    def process(self, tup, collector):
        raise RuntimeError("poisoned")


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.5
        )
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.4)
        assert policy.backoff(3) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_budget_is_per_worker(self):
        supervisor = Supervisor(RetryPolicy(max_restarts=1), sleep=_NO_SLEEP)
        exc = RuntimeError("x")
        assert supervisor.should_restart("b", 0, exc)
        assert not supervisor.should_restart("b", 0, exc)
        # A different worker of the same component has its own budget.
        assert supervisor.should_restart("b", 1, exc)
        assert supervisor.restarts("b") == 2
        assert supervisor.gave_up("b") == 1

    def test_sleep_receives_backoff_sequence(self):
        slept = []
        policy = RetryPolicy(
            max_restarts=3, backoff_base=0.01, backoff_factor=2.0,
            backoff_cap=10.0,
        )
        supervisor = Supervisor(policy, sleep=slept.append)
        for _ in range(3):
            supervisor.should_restart("b", 0, RuntimeError("x"))
        assert slept == pytest.approx([0.01, 0.02, 0.04])


@pytest.mark.parametrize("executor_cls", [LocalExecutor, ThreadedExecutor])
class TestSupervisedExecution:
    def test_crashing_workers_lose_no_tuples(self, executor_cls):
        sink, crashes = [], []
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: RangeSpout(40))
        builder.set_bolt(
            "flaky", lambda: CrashOnceBolt(sink, crashes), parallelism=2
        ).fields_grouping("src", ["i"])
        supervisor = Supervisor(RetryPolicy(max_restarts=100), sleep=_NO_SLEEP)
        metrics = executor_cls(
            builder.build(), fail_fast=True, supervisor=supervisor
        ).run()

        assert sorted(sink) == list(range(40))  # zero lost tuples
        assert crashes  # faults actually fired
        snap = metrics.snapshot()
        assert snap["flaky"]["restarts"] == len(crashes)
        assert snap["flaky"]["failed"] == len(crashes)
        assert snap["flaky"]["processed"] == 40
        assert supervisor.restarts("flaky") == len(crashes)

    def test_budget_exhaustion_fails_fast(self, executor_cls):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: RangeSpout(5))
        builder.set_bolt("bad", AlwaysFailBolt).fields_grouping("src", ["i"])
        supervisor = Supervisor(RetryPolicy(max_restarts=2), sleep=_NO_SLEEP)
        executor = executor_cls(
            builder.build(), fail_fast=True, supervisor=supervisor
        )
        with pytest.raises(ComponentError):
            executor.run()
        # 1 initial attempt + 2 restarts, then gave up.
        assert supervisor.restarts("bad") == 2
        assert supervisor.gave_up("bad") >= 1

    def test_budget_exhaustion_drops_tuple_without_fail_fast(
        self, executor_cls
    ):
        sink = []

        class FailFirstTupleBolt(Bolt):
            def process(self, tup, collector):
                if tup["i"] == 0:
                    raise RuntimeError("tuple zero is cursed")
                sink.append(tup["i"])

        builder = TopologyBuilder()
        builder.set_spout("src", lambda: RangeSpout(5))
        builder.set_bolt("bad", FailFirstTupleBolt).fields_grouping("src", ["i"])
        supervisor = Supervisor(RetryPolicy(max_restarts=2), sleep=_NO_SLEEP)
        metrics = executor_cls(
            builder.build(), fail_fast=False, supervisor=supervisor
        ).run()
        # The cursed tuple was retried then dropped; the rest flowed on.
        assert sorted(sink) == [1, 2, 3, 4]
        assert metrics.snapshot()["bad"]["restarts"] == 2

    def test_unsupervised_behaviour_unchanged(self, executor_cls):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: RangeSpout(3))
        builder.set_bolt("bad", AlwaysFailBolt).fields_grouping("src", ["i"])
        with pytest.raises(ComponentError):
            executor_cls(builder.build(), fail_fast=True).run()
