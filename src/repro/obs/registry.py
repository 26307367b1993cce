"""Unified metrics registry: typed instruments with labels and snapshots.

The paper's production claims (§6: millisecond serving under billions of
tuples per day) are measurement claims.  A :class:`MetricsRegistry` is
the one place every subsystem — topology, router, recommender, trainer,
breakers — keeps its counts and latency summaries, so a single
``to_json()`` call captures the whole system and the bench harness can
diff runs.

Three instrument kinds, deliberately Prometheus-shaped:

* :class:`Counter` — monotonically non-decreasing; ``inc()`` only.
* :class:`Gauge` — a value that goes both ways; ``set()``/``inc()``.
* :class:`Histogram` — fixed bucket boundaries chosen at creation time,
  cumulative bucket counts, exact count/sum, plus a bounded raw-sample
  buffer so percentile queries go through the shared
  :func:`~repro.obs.percentiles.nearest_rank` codepath.  Callers time
  on their own clock and ``observe()`` the duration.

Instruments support labels: declare ``labelnames`` at registration, then
``instrument.labels(component="spout")`` returns the child series for that
label combination.  Code that picks a child per event holds a
:class:`Children` map instead, which calls ``labels()`` once per label
value.  Metric naming convention (enforced nowhere, documented
in DESIGN.md): ``<subsystem>_<quantity>_<unit>`` with ``_total`` for
counters — e.g. ``storm_tuples_processed_total``,
``serving_request_latency_seconds``.

Everything is thread-safe; ``snapshot()`` returns plain data that is
detached from the registry (mutating it cannot corrupt live instruments,
and later instrument updates never mutate an already-taken snapshot).
Every recorded value must be finite, so ``to_json()`` is always strict
JSON.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left
from typing import Sequence

from .percentiles import nearest_rank

__all__ = [
    "Children",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "REGISTRY_SCHEMA_VERSION",
]

#: Version stamped into every ``MetricsRegistry.to_json()`` document.
REGISTRY_SCHEMA_VERSION = 1

#: Default histogram boundaries (seconds): 100 µs .. 10 s, roughly
#: logarithmic — covers both sub-millisecond stages and multi-second runs.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _finite(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric values must be finite, got {value}")
    return value


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name must be lower_snake_case ([a-z0-9_]), got {name!r}"
        )
    return name


class _Instrument:
    """Shared label machinery: one parent holds one child per label set."""

    kind = "instrument"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], "_Instrument"] = {}
        self._lock = threading.Lock()

    # -- labels ------------------------------------------------------------

    def labels(self, **labelvalues: str) -> "_Instrument":
        """The child series for one label combination (created on demand)."""
        if not self.labelnames:
            raise ValueError(f"{self.name} was declared without labels")
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _make_child(self) -> "_Instrument":
        raise NotImplementedError

    def _series(self) -> list[tuple[dict[str, str], "_Instrument"]]:
        """(labels-dict, leaf) pairs in deterministic (sorted-label) order."""
        if not self.labelnames:
            return [({}, self)]
        with self._lock:
            items = sorted(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in items
        ]

    def _guard_unlabelled(self) -> None:
        if self.labelnames:
            raise ValueError(
                f"{self.name} has labels {self.labelnames}; "
                "call .labels(...) first"
            )


class Children(dict):
    """Label value (a tuple, in ``labelnames`` order, for several labels)
    → child series, resolved through ``labels()`` on first use and a plain
    dict lookup after that, so an unused value exports no series."""

    def __init__(self, instrument: _Instrument) -> None:
        super().__init__()
        self._instrument = instrument

    def __missing__(self, key) -> _Instrument:
        values = key if isinstance(key, tuple) else (key,)
        names = self._instrument.labelnames
        child = self[key] = self._instrument.labels(**dict(zip(names, values)))
        return child

    def peek(self, key) -> _Instrument | None:
        """The registry's series for ``key`` if it exists, without creating
        it: how a plain-dict view reads the registry."""
        values = key if isinstance(key, tuple) else (key,)
        instrument = self._instrument
        with instrument._lock:
            return instrument._children.get(tuple(str(v) for v in values))


class Counter(_Instrument):
    """A monotonically non-decreasing count."""

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        if not 0 <= amount < math.inf:
            raise ValueError(
                f"counters only go up by finite amounts, got inc({amount})"
            )
        self._guard_unlabelled()
        # Per event: explicit acquire/release is cheaper than ``with``.
        self._lock.acquire()
        try:
            self._value += amount
        finally:
            self._lock.release()

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, breaker state, ...)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help)

    def set(self, value: float) -> None:
        value = _finite(value)
        self._guard_unlabelled()
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        amount = _finite(amount)
        self._guard_unlabelled()
        with self._lock:
            self._value += amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if larger (an atomic high-water mark)."""
        value = _finite(value)
        self._guard_unlabelled()
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Fixed-boundary histogram with exact count/sum and percentiles.

    ``buckets`` are upper bounds in increasing order; an implicit ``+Inf``
    bucket always exists.  Bucket counts reported by :meth:`state` are
    *cumulative* (Prometheus-style), so they are monotonically
    non-decreasing across the boundaries — the invariant the obs test
    suite pins down.

    Up to ``sample_limit`` raw observations are retained so
    :meth:`percentile` can answer through the shared nearest-rank
    codepath; beyond the limit count/sum/max/buckets stay exact while
    percentiles describe the first ``sample_limit`` samples.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        sample_limit: int = 65_536,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.buckets = bounds
        self.sample_limit = sample_limit
        self._bucket_counts = [0] * (len(bounds) + 1)  # +Inf last
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0
        self._samples: list[float] = []

    def _make_child(self) -> "Histogram":
        return Histogram(
            self.name,
            self.help,
            buckets=self.buckets,
            sample_limit=self.sample_limit,
        )

    def observe(self, value: float) -> None:
        self._guard_unlabelled()
        # Finite first: bisect would file NaN in the first bucket.
        value = _finite(value)
        idx = bisect_left(self.buckets, value)  # first bound >= value
        with self._lock:
            self._bucket_counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._samples) < self.sample_limit:
                self._samples.append(value)

    # -- queries -----------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained raw samples.

        ``q`` is in [0, 100]; 0.0 when empty.  Deterministic (no
        interpolation), so tests can assert exact values from known
        sample sets.
        """
        with self._lock:
            samples = list(self._samples)
        return nearest_rank(samples, q)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def state(self) -> dict:
        """Plain-data summary: cumulative buckets, count, sum, percentiles."""
        with self._lock:
            raw = list(self._bucket_counts)
            count = self._count
            total = self._sum
            mn = self._min if self._count else 0.0
            mx = self._max
            samples = list(self._samples)
        cumulative: list[int] = []
        running = 0
        for c in raw:
            running += c
            cumulative.append(running)
        return {
            "buckets": [
                {"le": bound, "count": cum}
                for bound, cum in zip(
                    list(self.buckets) + ["+Inf"], cumulative
                )
            ],
            "count": count,
            "sum": total,
            "min": mn,
            "max": mx,
            "p50": nearest_rank(samples, 50.0),
            "p95": nearest_rank(samples, 95.0),
            "p99": nearest_rank(samples, 99.0),
        }


class MetricsRegistry:
    """Process-wide (or run-wide) collection of named instruments.

    ``counter()`` / ``gauge()`` / ``histogram()`` are get-or-create:
    registering the same name twice returns the existing instrument, but
    re-registering under a different kind or label set raises — silent
    metric collisions are exactly what a shared registry exists to
    prevent.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    # -- registration ------------------------------------------------------

    def _get_or_create(self, cls, name: str, kwargs: dict) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, cannot re-register as {cls.kind}"
                    )
                if existing.labelnames != tuple(kwargs.get("labelnames", ())):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, got "
                        f"{tuple(kwargs.get('labelnames', ()))}"
                    )
                return existing
            instrument = cls(name, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(
            Counter, name, {"help": help, "labelnames": tuple(labelnames)}
        )

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, {"help": help, "labelnames": tuple(labelnames)}
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram,
            name,
            {
                "help": help,
                "labelnames": tuple(labelnames),
                "buckets": tuple(buckets),
            },
        )

    # -- introspection -----------------------------------------------------

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments

    def snapshot(self) -> dict:
        """Detached plain-data view of every instrument.

        The returned structure shares nothing mutable with the registry:
        callers may mutate it freely, and instrument updates after the
        call never show up in it.
        """
        with self._lock:
            instruments = sorted(self._instruments.items())
        out: dict[str, dict] = {}
        for name, instrument in instruments:
            series = []
            for labels, leaf in instrument._series():
                if isinstance(leaf, Histogram):
                    data: dict = leaf.state()
                elif isinstance(leaf, (Counter, Gauge)):
                    data = {"value": leaf.value}
                else:  # pragma: no cover - no other kinds exist
                    data = {}
                series.append({"labels": labels, **data})
            out[name] = {
                "kind": instrument.kind,
                "help": instrument.help,
                "labelnames": list(instrument.labelnames),
                "series": series,
            }
        return out

    def to_json(self, indent: int | None = 2) -> str:
        """The full registry as a schema-versioned JSON document."""
        document = {
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "metrics": self.snapshot(),
        }
        return json.dumps(
            document, indent=indent, sort_keys=True, allow_nan=False
        )
