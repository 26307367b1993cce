"""Topology model: spouts, bolts, and the builder that wires them.

Mirrors Storm's programming model as described in §5.1 of the paper: a spout
produces input streams, bolts consume and transform streams, and a topology
is the directed graph of components plus the grouping on every edge.
Components declare *factories* rather than instances because each worker of
a component gets its own private instance — that per-worker isolation is
what lets fields grouping deliver single-writer semantics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from ..errors import TopologyError
from .grouping import FieldsGrouping, Grouping
from .tuples import DEFAULT_STREAM, StreamTuple


@dataclass(frozen=True, slots=True)
class ComponentContext:
    """What a spout/bolt worker knows about its place in the topology."""

    component: str
    worker_index: int
    parallelism: int


class Collector:
    """Collects the tuples a component emits during one invocation.

    The executor drains :attr:`emitted` after each call; components must not
    hold a reference across invocations.
    """

    def __init__(self) -> None:
        self.emitted: list[StreamTuple] = []

    def emit(
        self, values: Mapping[str, Any], stream: str = DEFAULT_STREAM
    ) -> StreamTuple:
        tup = StreamTuple(values, stream=stream)
        self.emitted.append(tup)
        return tup

    def drain(self) -> list[StreamTuple]:
        out = self.emitted
        self.emitted = []
        return out


class Spout(ABC):
    """A source of stream tuples.

    The executor calls :meth:`open` once per worker, then repeatedly calls
    :meth:`next_tuple` until it returns ``None`` (source exhausted) or the
    run is stopped.  Streaming sources that are momentarily idle may raise
    :class:`NotReady` — only the threaded executor retries those.
    """

    def open(self, ctx: ComponentContext) -> None:
        """Per-worker initialisation hook (default: none)."""

    @abstractmethod
    def next_tuple(self) -> StreamTuple | None:
        """Return the next tuple, or ``None`` when the source is exhausted."""

    def close(self) -> None:
        """Per-worker shutdown hook (default: none)."""


class Bolt(ABC):
    """A stream transformer: consumes tuples, may emit new ones."""

    def prepare(self, ctx: ComponentContext) -> None:
        """Per-worker initialisation hook (default: none)."""

    @abstractmethod
    def process(self, tup: StreamTuple, collector: Collector) -> None:
        """Handle one tuple; emit downstream tuples via ``collector``."""

    def cleanup(self) -> None:
        """Per-worker shutdown hook (default: none)."""


@dataclass(frozen=True, slots=True)
class Subscription:
    """One inbound edge of a bolt: a source component + stream + grouping."""

    source: str
    stream: str
    grouping: Grouping


@dataclass(slots=True)
class ComponentSpec:
    """Declaration of one topology component."""

    name: str
    factory: Callable[[], Spout] | Callable[[], Bolt]
    parallelism: int
    is_spout: bool
    subscriptions: list[Subscription] = field(default_factory=list)


class BoltDeclarer:
    """Fluent helper returned by :meth:`TopologyBuilder.set_bolt`.

    Mirrors Storm's declarer API::

        builder.set_bolt("mf_storage", factory, parallelism=4) \\
               .fields_grouping("compute_mf", ["key"])
    """

    def __init__(self, spec: ComponentSpec) -> None:
        self._spec = spec

    def _subscribe(
        self, source: str, grouping: Grouping, stream: str
    ) -> "BoltDeclarer":
        self._spec.subscriptions.append(Subscription(source, stream, grouping))
        return self

    def fields_grouping(
        self, source: str, fields: Iterable[str], stream: str = DEFAULT_STREAM
    ) -> "BoltDeclarer":
        return self._subscribe(source, FieldsGrouping(tuple(fields)), stream)


class Topology:
    """A validated, immutable topology ready for execution."""

    def __init__(self, components: dict[str, ComponentSpec]) -> None:
        self.components = components
        # Routing table: (source, stream) -> [(target, grouping), ...]
        self.routes: dict[tuple[str, str], list[tuple[str, Grouping]]] = {}
        for spec in components.values():
            for sub in spec.subscriptions:
                self.routes.setdefault((sub.source, sub.stream), []).append(
                    (spec.name, sub.grouping)
                )

    @property
    def spouts(self) -> list[ComponentSpec]:
        return [s for s in self.components.values() if s.is_spout]

    @property
    def bolts(self) -> list[ComponentSpec]:
        return [s for s in self.components.values() if not s.is_spout]

    def targets(self, source: str, stream: str) -> list[tuple[str, Grouping]]:
        """Downstream (bolt, grouping) pairs for tuples on (source, stream)."""
        return self.routes.get((source, stream), [])

    def describe(self) -> str:
        """Render the wiring as text, one line per edge (for docs/tests)."""
        lines = []
        for spec in self.components.values():
            kind = "spout" if spec.is_spout else "bolt"
            lines.append(f"{spec.name} [{kind} x{spec.parallelism}]")
            for sub in spec.subscriptions:
                lines.append(
                    f"  <- {sub.source}/{sub.stream} via {sub.grouping.describe()}"
                )
        return "\n".join(lines)


class TopologyBuilder:
    """Declarative builder for :class:`Topology` graphs."""

    def __init__(self) -> None:
        self._components: dict[str, ComponentSpec] = {}

    def set_spout(
        self, name: str, factory: Callable[[], Spout], parallelism: int = 1
    ) -> None:
        self._add(ComponentSpec(name, factory, parallelism, is_spout=True))

    def set_bolt(
        self, name: str, factory: Callable[[], Bolt], parallelism: int = 1
    ) -> BoltDeclarer:
        spec = ComponentSpec(name, factory, parallelism, is_spout=False)
        self._add(spec)
        return BoltDeclarer(spec)

    def _add(self, spec: ComponentSpec) -> None:
        if spec.parallelism < 1:
            raise TopologyError(
                f"component {spec.name!r}: parallelism must be >= 1"
            )
        if spec.name in self._components:
            raise TopologyError(f"duplicate component name: {spec.name!r}")
        self._components[spec.name] = spec

    def build(self) -> Topology:
        """Validate and freeze the topology."""
        if not any(s.is_spout for s in self._components.values()):
            raise TopologyError("a topology needs at least one spout")
        for spec in self._components.values():
            if spec.is_spout and spec.subscriptions:
                raise TopologyError(
                    f"spout {spec.name!r} cannot subscribe to streams"
                )
            for sub in spec.subscriptions:
                if sub.source not in self._components:
                    raise TopologyError(
                        f"bolt {spec.name!r} subscribes to unknown component "
                        f"{sub.source!r}"
                    )
                if sub.source == spec.name:
                    raise TopologyError(
                        f"bolt {spec.name!r} cannot subscribe to itself"
                    )
            if not spec.is_spout and not spec.subscriptions:
                raise TopologyError(
                    f"bolt {spec.name!r} has no input subscription"
                )
        return Topology(dict(self._components))
