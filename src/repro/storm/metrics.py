"""Per-component runtime metrics for topologies.

Tracks the numbers the paper quotes for its production deployment —
throughput (tuples/s), processing latency, failure counts — per component
and per worker, so the scalability benchmarks can report tuples/s as a
function of parallelism.  :class:`LatencyStats` keeps a bounded sample
buffer alongside its streaming mean/max so tail latency (p50/p95/p99 —
the paper reports "latency of milliseconds" at peak load) is available to
the overload tests, and :class:`ComponentMetrics` counts shed tuples and
observed queue depth for the executor backpressure policies.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..obs.percentiles import nearest_rank
from ..obs.registry import MetricsRegistry


@dataclass
class LatencyStats:
    """Streaming summary of a latency series (seconds).

    Keeps every sample up to ``sample_limit`` for percentile queries;
    ``count``/``total``/``max`` remain exact beyond the limit, percentiles
    then describe the first ``sample_limit`` observations.
    """

    count: int = 0
    total: float = 0.0
    max: float = 0.0
    sample_limit: int = 65_536
    _samples: list[float] = field(default_factory=list, repr=False)

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds
        if len(self._samples) < self.sample_limit:
            self._samples.append(seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the retained samples; 0.0 when empty.

        ``q`` is in [0, 100].  Deterministic (no interpolation), so tests
        can assert exact values from known sample sets.  Delegates to the
        shared :func:`repro.obs.percentiles.nearest_rank` codepath — the
        same convention every other latency summary in the system uses.
        """
        return nearest_rank(self._samples, q)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)


class _ComponentInstruments:
    """Bound registry series mirroring one component's counters.

    Created when a :class:`TopologyMetrics` is backed by a shared
    :class:`~repro.obs.MetricsRegistry`; each ``record_*`` call then
    updates both the local dataclass fields (the historical API the
    tests and benchmarks read) and the registry series, so one
    ``registry.to_json()`` captures the topology alongside every other
    subsystem.
    """

    __slots__ = (
        "emitted",
        "processed",
        "failed",
        "restarts",
        "shed",
        "queue_depth",
        "max_queue_depth",
        "latency",
    )

    def __init__(self, registry: MetricsRegistry, component: str) -> None:
        label = {"component": component}
        self.emitted = registry.counter(
            "storm_tuples_emitted_total",
            "Tuples emitted by each topology component",
            labelnames=("component",),
        ).labels(**label)
        self.processed = registry.counter(
            "storm_tuples_processed_total",
            "Bolt invocations completed per component",
            labelnames=("component",),
        ).labels(**label)
        self.failed = registry.counter(
            "storm_tuple_failures_total",
            "Bolt invocations that raised, per component",
            labelnames=("component",),
        ).labels(**label)
        self.restarts = registry.counter(
            "storm_worker_restarts_total",
            "Supervised worker restarts per component",
            labelnames=("component",),
        ).labels(**label)
        self.shed = registry.counter(
            "storm_tuples_shed_total",
            "Tuples dropped by backpressure shed policies",
            labelnames=("component",),
        ).labels(**label)
        self.queue_depth = registry.gauge(
            "storm_queue_depth",
            "Inbound queue depth sampled at enqueue",
            labelnames=("component",),
        ).labels(**label)
        self.max_queue_depth = registry.gauge(
            "storm_queue_depth_high_water",
            "High-water inbound queue depth",
            labelnames=("component",),
        ).labels(**label)
        self.latency = registry.histogram(
            "storm_process_latency_seconds",
            "Per-invocation bolt processing latency",
            labelnames=("component",),
        ).labels(**label)


@dataclass
class ComponentMetrics:
    """Counters for one spout or bolt across all of its workers."""

    name: str
    emitted: int = 0
    processed: int = 0
    failed: int = 0
    restarts: int = 0
    shed: int = 0
    queue_depth: int = 0
    max_queue_depth: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)
    per_worker_processed: dict[int, int] = field(default_factory=dict)
    instruments: _ComponentInstruments | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_emit(self, count: int = 1) -> None:
        with self._lock:
            self.emitted += count
        if self.instruments is not None:
            self.instruments.emitted.inc(count)

    def record_processed(self, worker: int, seconds: float) -> None:
        with self._lock:
            self.processed += 1
            self.latency.record(seconds)
            self.per_worker_processed[worker] = (
                self.per_worker_processed.get(worker, 0) + 1
            )
        if self.instruments is not None:
            self.instruments.processed.inc()
            self.instruments.latency.observe(seconds)

    def record_failure(self) -> None:
        with self._lock:
            self.failed += 1
        if self.instruments is not None:
            self.instruments.failed.inc()

    def record_restart(self) -> None:
        with self._lock:
            self.restarts += 1
        if self.instruments is not None:
            self.instruments.restarts.inc()

    def record_shed(self, count: int = 1) -> None:
        """Count tuples dropped by a backpressure shed policy."""
        with self._lock:
            self.shed += count
        if self.instruments is not None:
            self.instruments.shed.inc(count)

    def record_queue_depth(self, depth: int) -> None:
        """Record an observed inbound queue depth (gauge + high-water)."""
        with self._lock:
            self.queue_depth = depth
            if depth > self.max_queue_depth:
                self.max_queue_depth = depth
            high_water = self.max_queue_depth
        if self.instruments is not None:
            self.instruments.queue_depth.set(depth)
            self.instruments.max_queue_depth.set(high_water)


class TopologyMetrics:
    """Registry of :class:`ComponentMetrics`, one per topology component.

    With ``registry`` set, every component's counters are mirrored into
    that shared :class:`~repro.obs.MetricsRegistry` under the
    ``storm_*`` metric names, labelled by component.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry
        self._components: dict[str, ComponentMetrics] = {}
        self._lock = threading.Lock()

    def component(self, name: str) -> ComponentMetrics:
        with self._lock:
            if name not in self._components:
                instruments = (
                    _ComponentInstruments(self.registry, name)
                    if self.registry is not None
                    else None
                )
                self._components[name] = ComponentMetrics(
                    name, instruments=instruments
                )
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
                "restarts": metrics.restarts,
                "shed": metrics.shed,
                "queue_depth": metrics.queue_depth,
                "max_queue_depth": metrics.max_queue_depth,
                "mean_latency_s": metrics.latency.mean,
                "max_latency_s": metrics.latency.max,
                "p99_latency_s": metrics.latency.p99,
            }
        return out

    @property
    def total_processed(self) -> int:
        with self._lock:
            return sum(m.processed for m in self._components.values())

    @property
    def total_shed(self) -> int:
        with self._lock:
            return sum(m.shed for m in self._components.values())
