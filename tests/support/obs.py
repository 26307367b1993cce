"""Observability helpers: a deterministic bundle and counter views."""

from __future__ import annotations

from repro.clock import Clock, VirtualClock
from repro.obs import MetricsRegistry, Observability, Tracer


def deterministic_obs(clock: Clock | None = None) -> Observability:
    """A bundle whose registry, tracer and perf clock share one clock.

    On a :class:`~repro.clock.VirtualClock` latencies only advance when the
    test advances it, which makes golden registry snapshots exact.
    """
    shared = clock if clock is not None else VirtualClock(0.0)
    return Observability(
        registry=MetricsRegistry(clock=shared),
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
