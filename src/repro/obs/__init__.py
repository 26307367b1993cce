"""Observability layer: unified metrics and tracing.

The paper's §5–§6 claims are *operational* — linear Storm scalability,
millisecond end-to-end latency under production traffic — and reproducing
them requires measuring this system the way Tencent measured theirs.
:mod:`repro.obs` is that measurement plane:

* :class:`MetricsRegistry` with typed :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments — the shared registry every subsystem
  (topology metrics, router, trainer, breakers) reports into;
* :class:`Tracer` — synchronous, causally-linked spans from a routed
  request through the recommender's stages, with per-stage latency
  attribution;
* :class:`Observability` — the bundle components accept as one ``obs=``
  argument.

Everything runs on injected clocks, so observability output is exactly as
deterministic as the code under observation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..clock import Clock
from .percentiles import nearest_rank
from .registry import (
    DEFAULT_BUCKETS,
    REGISTRY_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import TRACE_SCHEMA_VERSION, Span, SpanContext, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "REGISTRY_SCHEMA_VERSION",
    "Span",
    "SpanContext",
    "Tracer",
    "TRACE_SCHEMA_VERSION",
    "Observability",
    "nearest_rank",
]


class _PerfClock:
    """Monotonic wall clock (``time.perf_counter``) for duration timing."""

    def now(self) -> float:
        return time.perf_counter()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "_PerfClock()"


@dataclass
class Observability:
    """One handle bundling the registry, the tracer and the perf clock.

    Components take it as one ``obs=`` argument.  The serving path
    requires it: :class:`~repro.serving.RequestRouter` counts and times
    every request in it, and :class:`~repro.serving.ServingGateway`
    takes its router's bundle, since ``/metrics`` serves that registry.
    The recommender, trainer, executors and topology accept ``obs=None``
    and then record into private instruments.
    Passing the same bundle to all of them is what stitches their metrics
    into one registry document and the serving path's spans into shared
    traces.

    ``perf_clock`` is the clock *durations* are measured on — wall
    ``perf_counter`` by default.  Built with one shared
    :class:`~repro.clock.VirtualClock` as the tracer clock and
    ``perf_clock``, latencies only advance when the caller advances the
    clock, which is what makes golden snapshots exact.
    """

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)
    perf_clock: Clock = field(default_factory=_PerfClock)

    @classmethod
    def create(cls, sample_every: int = 1) -> "Observability":
        """Production-style bundle: wall clocks, optional trace sampling."""
        return cls(
            registry=MetricsRegistry(),
            tracer=Tracer(sample_every=sample_every),
        )
