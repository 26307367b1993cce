"""Tests for topology declaration and validation."""

import pytest

from repro.errors import TopologyError
from repro.storm import (
    Bolt,
    Collector,
    Spout,
    StreamTuple,
    TopologyBuilder,
)


class NullSpout(Spout):
    def next_tuple(self):
        return None


class EchoBolt(Bolt):
    def process(self, tup: StreamTuple, collector: Collector) -> None:
        collector.emit(dict(tup))


def test_minimal_topology_builds():
    builder = TopologyBuilder()
    builder.set_spout("src", NullSpout)
    builder.set_bolt("echo", EchoBolt).fields_grouping("src", ["x"])
    topo = builder.build()
    assert {s.name for s in topo.spouts} == {"src"}
    assert {b.name for b in topo.bolts} == {"echo"}


def test_no_spout_rejected():
    builder = TopologyBuilder()
    builder.set_bolt("b", EchoBolt).fields_grouping("b2", ["x"])
    builder.set_bolt("b2", EchoBolt).fields_grouping("b", ["x"])
    with pytest.raises(TopologyError, match="at least one spout"):
        builder.build()


def test_duplicate_names_rejected():
    builder = TopologyBuilder()
    builder.set_spout("x", NullSpout)
    with pytest.raises(TopologyError, match="duplicate"):
        builder.set_bolt("x", EchoBolt)


def test_unknown_source_rejected():
    builder = TopologyBuilder()
    builder.set_spout("src", NullSpout)
    builder.set_bolt("b", EchoBolt).fields_grouping("ghost", ["x"])
    with pytest.raises(TopologyError, match="unknown component"):
        builder.build()


def test_self_subscription_rejected():
    builder = TopologyBuilder()
    builder.set_spout("src", NullSpout)
    builder.set_bolt("b", EchoBolt).fields_grouping("b", ["x"])
    with pytest.raises(TopologyError, match="itself"):
        builder.build()


def test_unsubscribed_bolt_rejected():
    builder = TopologyBuilder()
    builder.set_spout("src", NullSpout)
    builder.set_bolt("orphan", EchoBolt)
    with pytest.raises(TopologyError, match="no input"):
        builder.build()


def test_nonpositive_parallelism_rejected():
    builder = TopologyBuilder()
    with pytest.raises(TopologyError, match="parallelism"):
        builder.set_spout("src", NullSpout, parallelism=0)


def test_routes_resolve_per_stream():
    builder = TopologyBuilder()
    builder.set_spout("src", NullSpout)
    builder.set_bolt("a", EchoBolt).fields_grouping("src", ["x"], stream="s1")
    builder.set_bolt("b", EchoBolt).fields_grouping("src", ["x"], stream="s2")
    topo = builder.build()
    assert [t for t, _ in topo.targets("src", "s1")] == ["a"]
    assert [t for t, _ in topo.targets("src", "s2")] == ["b"]
    assert topo.targets("src", "s3") == []


def test_multiple_subscribers_same_stream():
    builder = TopologyBuilder()
    builder.set_spout("src", NullSpout)
    builder.set_bolt("a", EchoBolt).fields_grouping("src", ["x"])
    builder.set_bolt("b", EchoBolt).fields_grouping("src", ["x"])
    topo = builder.build()
    assert {t for t, _ in topo.targets("src", "default")} == {"a", "b"}


def test_describe_lists_components_and_edges():
    builder = TopologyBuilder()
    builder.set_spout("src", NullSpout, parallelism=2)
    builder.set_bolt("b", EchoBolt, parallelism=3).fields_grouping("src", ["k"])
    text = builder.build().describe()
    assert "src [spout x2]" in text
    assert "b [bolt x3]" in text
    assert "FieldsGrouping(k)" in text
