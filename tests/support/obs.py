"""Observability helpers: a deterministic bundle and counter views."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from unittest import mock

from repro.clock import Clock, VirtualClock
from repro.obs import Histogram, MetricsRegistry, Observability, Tracer
from repro.obs.registry import _Instrument


def deterministic_obs(clock: Clock | None = None) -> Observability:
    """A bundle whose tracer and perf clock share one clock.

    On a :class:`~repro.clock.VirtualClock` latencies only advance when the
    test advances it, which makes golden registry snapshots exact.
    """
    shared = clock if clock is not None else VirtualClock(0.0)
    return Observability(
        registry=MetricsRegistry(),
        tracer=Tracer(clock=shared),
        perf_clock=shared,
    )


def counter_totals(registry: MetricsRegistry) -> dict[str, float]:
    """Flat ``{name{label=value,...}: total}`` view of every counter.

    Only counters — the deterministic part of a run: two executors over
    the same stream must agree on every count even though latency
    histograms differ.
    """
    totals: dict[str, float] = {}
    for name, metric in registry.snapshot().items():
        if metric["kind"] != "counter":
            continue
        for series in metric["series"]:
            label_part = ",".join(
                f"{k}={v}" for k, v in sorted(series["labels"].items())
            )
            key = f"{name}{{{label_part}}}" if label_part else name
            totals[key] = series["value"]
    return totals


def registry_total(registry: MetricsRegistry, name: str, **labels: str) -> float:
    """Sum of a counter/gauge over all series matching ``labels``.

    ``labels`` filters on a subset of the instrument's label names.  An
    unknown instrument totals 0.0 (absence of traffic, not an error);
    histograms are rejected because summing their counts silently discards
    the distribution.
    """
    metric = registry.snapshot().get(name)
    if metric is None:
        return 0.0
    if metric["kind"] == "histogram":
        raise ValueError(f"metric {name!r} is a histogram")
    unknown = set(labels) - set(metric["labelnames"])
    if unknown:
        raise ValueError(f"metric {name!r} has no labels {sorted(unknown)}")
    wanted = {k: str(v) for k, v in labels.items()}
    return sum(
        series["value"]
        for series in metric["series"]
        if all(series["labels"].get(k) == v for k, v in wanted.items())
    )


class InstrumentCalls:
    """What :func:`count_instrument_calls` saw: ``labels`` maps each
    ``(instrument name, label items)`` to its ``labels()`` calls;
    ``observed`` counts ``Histogram.observe`` calls."""

    def __init__(self) -> None:
        self.labels: Counter = Counter()
        self.observed = 0


@contextmanager
def count_instrument_calls():
    """Count ``_Instrument.labels`` and ``Histogram.observe`` calls made
    inside the block, process-wide: the per-event instrumentation work."""
    calls = InstrumentCalls()
    labels, observe = _Instrument.labels, Histogram.observe

    def counting_labels(self, **labelvalues):
        calls.labels[self.name, tuple(sorted(labelvalues.items()))] += 1
        return labels(self, **labelvalues)

    def counting_observe(self, value):
        calls.observed += 1
        return observe(self, value)

    with mock.patch.object(_Instrument, "labels", counting_labels):
        with mock.patch.object(Histogram, "observe", counting_observe):
            yield calls
