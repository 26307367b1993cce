"""Request routing — the serving face of the system (paper §4.1, §6.2).

Production serves two scenarios (Figure 6): *related videos* while the
user watches something, and *guess you like* on the home page.  A
:class:`RequestRouter` wraps any recommender behind a single
``handle(request)`` entry point with per-scenario accounting, error
isolation (a failing request returns an empty response rather than taking
the service down) and latency tracking — the numbers the paper quotes
("handling millions of user requests every day, with latency of
milliseconds").

The router also carries the overload-protection chain (DESIGN.md
"Overload semantics"), applied in a fixed order per request:

1. **admission** — an optional
   :class:`~repro.reliability.overload.AdmissionController` sheds excess
   traffic before any backend work (``RecResponse.shed``);
2. **deadline** — an optional per-request budget
   (``RecRequest.deadline_seconds``), checked between the primary and the
   fallback so a slow primary still leaves the fallback its share;
3. **circuit breaker** — an optional
   :class:`~repro.reliability.overload.CircuitBreaker` around the primary
   recommender: while open, requests skip straight to the fallback
   instead of waiting on a backend that is known-broken;
4. **fallback** — the degraded-serving path inherited from the
   fault-tolerance subsystem.

Sheds and deadline misses are distinct response outcomes — never
exceptions — and are counted per scenario.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..clock import Clock
from ..obs import _PerfClock
from ..obs.registry import Histogram

if TYPE_CHECKING:  # avoid serving <-> reliability import at module load
    from ..obs import Observability
    from ..reliability.overload import AdmissionController, CircuitBreaker


class Scenario(enum.Enum):
    """The two recommendation surfaces of Figure 6."""

    GUESS_YOU_LIKE = "guess_you_like"
    RELATED_VIDEOS = "related_videos"


class Outcome(enum.Enum):
    """How a request left the router, from best to worst."""

    OK = "ok"
    DEGRADED = "degraded"
    SHED = "shed"
    DEADLINE_EXCEEDED = "deadline_exceeded"
    ERROR = "error"


#: Largest list one request may ask for.  A cap, because in ``"ann"``
#: retrieval the work a request does grows with ``n``.
MAX_N = 100


@dataclass(frozen=True, slots=True)
class RecRequest:
    """One recommendation request.

    ``current_video`` set means the related-videos scenario; absent means
    the home-page scenario seeded from the user's history.  ``n`` must be
    in ``[1, MAX_N]``, and ``timestamp``, when given, finite.
    ``deadline_seconds`` is an optional total latency budget (finite and
    non-negative) measured on the router's clock from the moment
    :meth:`RequestRouter.handle` starts.
    """

    user_id: str
    current_video: str | None = None
    n: int = 10
    timestamp: float | None = None
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be in [1, {MAX_N}], got {self.n}")
        if self.timestamp is not None and not math.isfinite(self.timestamp):
            raise ValueError(f"timestamp must be finite, got {self.timestamp}")
        deadline = self.deadline_seconds
        if deadline is not None and not 0 <= deadline < math.inf:
            raise ValueError(
                f"deadline_seconds must be finite and >= 0, got {deadline}"
            )

    @property
    def scenario(self) -> Scenario:
        return (
            Scenario.RELATED_VIDEOS
            if self.current_video is not None
            else Scenario.GUESS_YOU_LIKE
        )


@dataclass(frozen=True, slots=True)
class RecResponse:
    """The served list plus bookkeeping.

    ``degraded=True`` marks a response produced by the fallback
    recommender after the primary failed (or its breaker was open) —
    still a success (``ok``), but observable in per-scenario metrics.
    ``shed=True`` means admission control rejected the request before any
    backend work; ``deadline_exceeded=True`` means the budget ran out
    before a fallback could be tried.  Both are distinct outcomes, not
    errors.
    """

    request: RecRequest
    video_ids: tuple[str, ...]
    latency_seconds: float
    error: str | None = None
    degraded: bool = False
    shed: bool = False
    shed_reason: str | None = None
    deadline_exceeded: bool = False

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and not self.shed
            and not self.deadline_exceeded
        )

    @property
    def empty(self) -> bool:
        return not self.video_ids

    @property
    def outcome(self) -> Outcome:
        if self.shed:
            return Outcome.SHED
        if self.deadline_exceeded:
            return Outcome.DEADLINE_EXCEEDED
        if self.error is not None:
            return Outcome.ERROR
        if self.degraded:
            return Outcome.DEGRADED
        return Outcome.OK


@dataclass
class ScenarioStats:
    """Per-scenario serving counters.

    ``latency`` tracks *served* requests only (ok/degraded/error); shed
    and deadline-exceeded requests are counted separately so admission
    control cannot flatter the latency distribution with near-zero
    rejections.  It is the scenario's
    ``serving_request_latency_seconds`` registry series when the router
    has an ``obs`` bundle, a stand-alone histogram otherwise.
    """

    requests: int = 0
    errors: int = 0
    empty: int = 0
    fallbacks: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    breaker_fast_fails: int = 0
    latency: Histogram = field(
        default_factory=lambda: Histogram("serving_request_latency_seconds")
    )


class RequestRouter:
    """Thread-safe serving front for any recommender.

    The backing recommender only needs ``recommend_ids``; the router adds
    scenario dispatch, latency measurement, per-scenario stats, error
    isolation and the admission → deadline → breaker → fallback overload
    chain.  Multiple threads may call :meth:`handle` concurrently — the
    per-scenario counters are lock-protected, and the state the
    recommender reads lives in the (locked) KV store.

    ``fallback`` (any object with the same ``recommend_ids`` signature,
    e.g. :class:`~repro.baselines.HotRecommender`) enables graceful
    degradation: when the primary recommender raises — say the model store
    is erroring — the request is re-served from the fallback and counted
    in the scenario's ``fallbacks`` metric, instead of returning an empty
    error response.  Only when the fallback also fails (or none is
    configured) does the response carry an error.

    ``admission`` sheds excess traffic before any backend call;
    ``breaker`` wraps only the *primary* recommender (the fallback is the
    escape hatch and must stay reachable); ``clock`` drives latency and
    deadline measurement — inject a
    :class:`~repro.clock.VirtualClock` for deterministic overload tests.
    """

    def __init__(
        self,
        recommender,
        fallback=None,
        admission: "AdmissionController | None" = None,
        breaker: "CircuitBreaker | None" = None,
        clock: Clock | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        self.recommender = recommender
        self.fallback = fallback
        self.admission = admission
        self.breaker = breaker
        if clock is None:
            clock = obs.perf_clock if obs is not None else _PerfClock()
        self._clock = clock
        self._stats = {scenario: ScenarioStats() for scenario in Scenario}
        self._lock = threading.Lock()
        self._tracer = obs.tracer if obs is not None else None
        if obs is not None:
            self._requests_counter = obs.registry.counter(
                "serving_requests_total",
                "Requests handled by the router, by scenario and outcome",
                labelnames=("scenario", "outcome"),
            )
            self._latency_family = obs.registry.histogram(
                "serving_request_latency_seconds",
                "End-to-end router latency for served requests",
                labelnames=("scenario",),
            )
        else:
            self._requests_counter = None
            self._latency_family = None

    def _count_outcome(self, response: RecResponse) -> None:
        if self._requests_counter is not None:
            self._requests_counter.labels(
                scenario=response.request.scenario.value,
                outcome=response.outcome.value,
            ).inc()

    def _record_latency(self, scenario: Scenario, elapsed: float) -> None:
        """Record one served request's latency; caller holds ``_lock``."""
        stats = self._stats[scenario]
        if self._latency_family is not None and stats.latency.count == 0:
            # A scenario's registry series appears with its first served
            # request, so an idle scenario exports no empty series.
            stats.latency = self._latency_family.labels(scenario=scenario.value)
        stats.latency.observe(elapsed)

    def _serve(self, backend, request: RecRequest) -> tuple[str, ...]:
        return tuple(
            backend.recommend_ids(
                request.user_id,
                current_video=request.current_video,
                n=request.n,
                now=request.timestamp,
            )
        )

    def _shed_response(
        self, request: RecRequest, started: float, reason: str | None
    ) -> RecResponse:
        stats = self._stats[request.scenario]
        with self._lock:
            stats.requests += 1
            stats.shed += 1
        return RecResponse(
            request=request,
            video_ids=(),
            latency_seconds=self._clock.now() - started,
            shed=True,
            shed_reason=reason,
        )

    def _remaining(self, request: RecRequest, started: float) -> float | None:
        if request.deadline_seconds is None:
            return None
        return request.deadline_seconds - (self._clock.now() - started)

    def handle(self, request: RecRequest) -> RecResponse:
        """Serve one request; never raises."""
        if self._tracer is None:
            response = self._handle(request)
        else:
            # Each request roots its own trace; the recommender and KV
            # spans underneath parent to it via the ambient span stack.
            with self._tracer.span("router.handle", parent=None) as span:
                span.set_attribute("scenario", request.scenario.value)
                response = self._handle(request)
                span.set_attribute("outcome", response.outcome.value)
        self._count_outcome(response)
        return response

    def _handle(self, request: RecRequest) -> RecResponse:
        started = self._clock.now()
        if self.admission is not None:
            decision = self.admission.try_admit()
            if not decision.admitted:
                return self._shed_response(request, started, decision.reason)
            try:
                return self._handle_admitted(request, started)
            finally:
                self.admission.release()
        return self._handle_admitted(request, started)

    def _handle_admitted(
        self, request: RecRequest, started: float
    ) -> RecResponse:
        error: str | None = None
        degraded = False
        deadline_exceeded = False
        breaker_fast_fail = False
        videos: tuple[str, ...] = ()

        primary_allowed = self.breaker is None or self.breaker.allow()
        primary_failed = True
        if primary_allowed:
            try:
                videos = self._serve(self.recommender, request)
                primary_failed = False
                if self.breaker is not None:
                    self.breaker.record_success()
            except Exception as exc:  # noqa: BLE001 - service isolation boundary
                error = f"{type(exc).__name__}: {exc}"
                if self.breaker is not None:
                    self.breaker.record_failure()
        else:
            breaker_fast_fail = True
            error = "CircuitOpenError: primary recommender breaker is open"

        if primary_failed:
            # The deadline checkpoint: only try the fallback if the budget
            # (when set) still has time left.
            remaining = self._remaining(request, started)
            if remaining is not None and remaining <= 0:
                deadline_exceeded = True
                error = None
            elif self.fallback is not None:
                try:
                    videos = self._serve(self.fallback, request)
                    error = None
                    degraded = True
                except Exception as fb_exc:  # noqa: BLE001 - same boundary
                    error = (
                        f"{error}; fallback failed: "
                        f"{type(fb_exc).__name__}: {fb_exc}"
                    )

        elapsed = self._clock.now() - started
        stats = self._stats[request.scenario]
        with self._lock:
            stats.requests += 1
            if breaker_fast_fail:
                stats.breaker_fast_fails += 1
            if deadline_exceeded:
                stats.deadline_exceeded += 1
            else:
                self._record_latency(request.scenario, elapsed)
                if error is not None:
                    stats.errors += 1
                else:
                    if degraded:
                        stats.fallbacks += 1
                    if not videos:
                        stats.empty += 1
        return RecResponse(
            request=request,
            video_ids=videos,
            latency_seconds=elapsed,
            error=error,
            degraded=degraded,
            deadline_exceeded=deadline_exceeded,
        )

    def handle_many(self, requests: list[RecRequest]) -> list[RecResponse]:
        """Serve a batch of requests; never raises.

        Each request runs through the full admission → breaker → deadline
        → fallback chain independently (one user's failure or shed never
        poisons a neighbour's response), in input order — the shape a
        batched serving endpoint hands the router.  Responses come back in
        the same order as the requests.

        An empty batch is an explicit no-op: no counters move, no latency
        sample is recorded.  The gateway's coalescing collector may race a
        timer flush against a size flush — the loser finds an empty buffer
        and must leave the stats untouched.
        """
        if not requests:
            return []
        return [self.handle(request) for request in requests]

    def stats(self, scenario: Scenario) -> ScenarioStats:
        return self._stats[scenario]

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Plain-dict summary of both scenarios (for dashboards/tests)."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            for scenario, stats in self._stats.items():
                out[scenario.value] = {
                    "requests": stats.requests,
                    "errors": stats.errors,
                    "empty": stats.empty,
                    "fallbacks": stats.fallbacks,
                    "shed": stats.shed,
                    "deadline_exceeded": stats.deadline_exceeded,
                    "breaker_fast_fails": stats.breaker_fast_fails,
                    "mean_latency_ms": stats.latency.mean * 1000.0,
                    "max_latency_ms": stats.latency.max * 1000.0,
                    "p50_latency_ms": stats.latency.p50 * 1000.0,
                    "p95_latency_ms": stats.latency.p95 * 1000.0,
                    "p99_latency_ms": stats.latency.p99 * 1000.0,
                }
        return out
