"""Without a supervisor, a bolt exception aborts the run on either executor.

The executors restart no worker and retry no delivery: the first
exception counts as one failure and ``run()`` raises ``ComponentError``.
"""

import pytest

from repro.errors import ComponentError
from repro.storm import (
    Bolt,
    LocalExecutor,
    Spout,
    StreamTuple,
    ThreadedExecutor,
    TopologyBuilder,
)
from tests.support.faults import unaccounted


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


class AlwaysFailBolt(Bolt):
    def process(self, tup, collector):
        raise RuntimeError("poisoned")


@pytest.mark.parametrize("executor_cls", [LocalExecutor, ThreadedExecutor])
class TestSupervisedExecution:
    def test_unsupervised_behaviour_unchanged(self, executor_cls):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: RangeSpout(3))
        builder.set_bolt("bad", AlwaysFailBolt).fields_grouping("src", ["i"])
        topology = builder.build()
        executor = executor_cls(topology)
        with pytest.raises(ComponentError, match="bad"):
            executor.run()
        snap = executor.metrics.snapshot()
        # One failure, no retry of the poisoned delivery.
        assert snap["bad"]["failed"] == 1
        assert snap["bad"]["processed"] == 0
        assert "restarts" not in snap["bad"]
        assert unaccounted(topology, snap) == {}
