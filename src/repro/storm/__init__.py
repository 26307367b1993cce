"""Storm-like stream-processing substrate (paper §5.1).

Implements the Storm concepts the paper's deployment relies on — streams of
tuples, spouts, bolts, groupings, topologies — with two interchangeable
executors: a deterministic single-threaded one and a threaded one.
"""

from .executor import LocalExecutor, ThreadedExecutor
from .grouping import FieldsGrouping, Grouping
from .metrics import ComponentMetrics, TopologyMetrics
from .topology import (
    Bolt,
    BoltDeclarer,
    Collector,
    ComponentContext,
    Spout,
    Topology,
    TopologyBuilder,
)
from .tuples import DEFAULT_STREAM, StreamTuple

__all__ = [
    "DEFAULT_STREAM",
    "StreamTuple",
    "Grouping",
    "FieldsGrouping",
    "Spout",
    "Bolt",
    "Collector",
    "ComponentContext",
    "Topology",
    "TopologyBuilder",
    "BoltDeclarer",
    "LocalExecutor",
    "ThreadedExecutor",
    "TopologyMetrics",
    "ComponentMetrics",
]
