"""Per-component runtime metrics for topologies.

Tracks the numbers the paper quotes for its production deployment —
throughput (tuples/s), processing latency, failure counts — per component.
Every count and latency summary lives in a
:class:`~repro.obs.registry.MetricsRegistry` under the ``storm_*`` metric
names; :class:`ComponentMetrics` is the per-component read/record view
the executors and tests use.

Each delivery routed to a bolt is counted once, as ``processed`` (the bolt
returned), ``failed`` (it raised, which aborts the run) or ``shed`` (the
run stopped before a worker took it).
"""

from __future__ import annotations

import threading

from ..obs.registry import MetricsRegistry


class ComponentMetrics:
    """One spout's or bolt's ``storm_*`` series across all of its workers.

    ``latency`` is the component's
    ``storm_process_latency_seconds`` :class:`~repro.obs.Histogram`
    (``count`` / ``mean`` / ``max`` / ``p50`` / ``p95`` / ``p99``).
    """

    def __init__(self, name: str, registry: MetricsRegistry) -> None:
        self.name = name
        label = {"component": name}
        self._emitted = registry.counter(
            "storm_tuples_emitted_total",
            "Tuples emitted by each topology component",
            labelnames=("component",),
        ).labels(**label)
        self._processed = registry.counter(
            "storm_tuples_processed_total",
            "Bolt invocations completed per component",
            labelnames=("component",),
        ).labels(**label)
        self._failed = registry.counter(
            "storm_tuple_failures_total",
            "Bolt invocations that raised, per component",
            labelnames=("component",),
        ).labels(**label)
        self._shed = registry.counter(
            "storm_tuples_shed_total",
            "Deliveries an aborted run never processed, per component",
            labelnames=("component",),
        ).labels(**label)
        self._queue_depth = registry.gauge(
            "storm_queue_depth",
            "Inbound queue depth sampled at enqueue",
            labelnames=("component",),
        ).labels(**label)
        self._max_queue_depth = registry.gauge(
            "storm_queue_depth_high_water",
            "High-water inbound queue depth",
            labelnames=("component",),
        ).labels(**label)
        self.latency = registry.histogram(
            "storm_process_latency_seconds",
            "Per-invocation bolt processing latency",
            labelnames=("component",),
        ).labels(**label)

    def record_emit(self, count: int = 1) -> None:
        self._emitted.inc(count)

    def record_processed(self, seconds: float) -> None:
        self._processed.inc()
        self.latency.observe(seconds)

    def record_failure(self) -> None:
        self._failed.inc()

    def record_shed(self, count: int = 1) -> None:
        """Count deliveries dropped by a run abort or shutdown drain."""
        self._shed.inc(count)

    def record_queue_depth(self, depth: int) -> None:
        """Record an observed inbound queue depth (gauge + high-water)."""
        self._queue_depth.set(depth)
        self._max_queue_depth.set_max(depth)

    @property
    def emitted(self) -> int:
        return int(self._emitted.value)

    @property
    def processed(self) -> int:
        return int(self._processed.value)

    @property
    def failed(self) -> int:
        return int(self._failed.value)

    @property
    def shed(self) -> int:
        return int(self._shed.value)

    @property
    def queue_depth(self) -> int:
        return int(self._queue_depth.value)

    @property
    def max_queue_depth(self) -> int:
        return int(self._max_queue_depth.value)


class TopologyMetrics:
    """The :class:`ComponentMetrics` views of one topology run.

    The ``storm_*`` series live in ``registry`` — the shared
    :class:`~repro.obs.MetricsRegistry` when one is passed (so one
    ``registry.to_json()`` captures the topology alongside every other
    subsystem), a private one otherwise.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._components: dict[str, ComponentMetrics] = {}
        self._lock = threading.Lock()

    def component(self, name: str) -> ComponentMetrics:
        with self._lock:
            if name not in self._components:
                self._components[name] = ComponentMetrics(name, self.registry)
            return self._components[name]

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Return a plain-dict summary suitable for printing or asserting."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            components = list(self._components.values())
        for metrics in components:
            out[metrics.name] = {
                "emitted": metrics.emitted,
                "processed": metrics.processed,
                "failed": metrics.failed,
                "shed": metrics.shed,
                "queue_depth": metrics.queue_depth,
                "max_queue_depth": metrics.max_queue_depth,
                "mean_latency_s": metrics.latency.mean,
                "max_latency_s": metrics.latency.max,
                "p99_latency_s": metrics.latency.p99,
            }
        return out
