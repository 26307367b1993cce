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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs.registry import Children

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


#: Outcomes whose requests reached a backend.  Only their latency is
#: recorded, so admission control cannot flatter the distribution with
#: near-zero rejections.
_SERVED = frozenset({Outcome.OK, Outcome.DEGRADED, Outcome.ERROR})

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
    :meth:`RequestRouter.handle` starts.  The gateway passes what is left
    of the client's budget after the request's wait for the model lane.
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


def _count(counter) -> int:
    return int(counter.value) if counter is not None else 0


def _latency_ms(latency) -> dict[str, float]:
    return {
        f"{stat}_latency_ms": (
            getattr(latency, stat) * 1000.0 if latency is not None else 0.0
        )
        for stat in ("mean", "max", "p50", "p95", "p99")
    }


class RequestRouter:
    """Thread-safe serving front for any recommender.

    The backing recommender only needs ``recommend_ids``; the router adds
    scenario dispatch, latency measurement, per-scenario counts, error
    isolation and the admission → deadline → breaker → fallback overload
    chain.  Multiple threads may call :meth:`handle` concurrently — the
    counts are (locked) registry instruments, and the state the
    recommender reads is copied out of (locked) arenas and lists or read
    from history and hot entries that writers replace, never mutate.

    ``fallback`` (any object with the same ``recommend_ids`` signature,
    e.g. :class:`~repro.baselines.HotRecommender`) enables graceful
    degradation: when the primary recommender raises — say its model
    state is unreadable — the request is re-served from the fallback and counted
    as ``degraded`` instead of returning an empty error response.  Only
    when the fallback also fails (or none is configured) does the response
    carry an error.

    ``admission`` sheds excess traffic before any backend call;
    ``breaker`` wraps only the *primary* recommender (the fallback is the
    escape hatch and must stay reachable).  ``obs`` is required: each
    request is counted in its registry
    (``serving_requests_total{scenario,outcome}``,
    ``serving_empty_responses_total{scenario}``,
    ``serving_request_latency_seconds{scenario}``), roots a trace in its
    tracer and is timed on its ``perf_clock`` — a bundle built on a
    :class:`~repro.clock.VirtualClock` makes overload tests deterministic.
    """

    def __init__(
        self,
        recommender,
        fallback=None,
        admission: "AdmissionController | None" = None,
        breaker: "CircuitBreaker | None" = None,
        *,
        obs: "Observability",
    ) -> None:
        self.recommender = recommender
        self.fallback = fallback
        self.admission = admission
        self.breaker = breaker
        self.obs = obs
        self._clock = obs.perf_clock
        self._tracer = obs.tracer
        self._requests = Children(
            obs.registry.counter(
                "serving_requests_total",
                "Requests handled by the router, by scenario and outcome",
                labelnames=("scenario", "outcome"),
            )
        )
        self._empty = Children(
            obs.registry.counter(
                "serving_empty_responses_total",
                "Ok or degraded responses that carried no videos",
                labelnames=("scenario",),
            )
        )
        self._latency = Children(
            obs.registry.histogram(
                "serving_request_latency_seconds",
                "End-to-end router latency for served requests",
                labelnames=("scenario",),
            )
        )

    def _record(self, response: RecResponse) -> None:
        scenario = response.request.scenario.value
        outcome = response.outcome
        self._requests[scenario, outcome.value].inc()
        if outcome in _SERVED:
            self._latency[scenario].observe(response.latency_seconds)
            if outcome is not Outcome.ERROR and response.empty:
                self._empty[scenario].inc()

    def _serve(self, backend, request: RecRequest) -> tuple[str, ...]:
        return tuple(
            backend.recommend_ids(
                request.user_id,
                current_video=request.current_video,
                n=request.n,
                now=request.timestamp,
            )
        )

    def _remaining(self, request: RecRequest, started: float) -> float | None:
        if request.deadline_seconds is None:
            return None
        return request.deadline_seconds - (self._clock.now() - started)

    def handle(self, request: RecRequest) -> RecResponse:
        """Serve one request; never raises."""
        # Each request roots its own trace; the recommender's spans
        # underneath parent to it via the ambient span stack.
        with self._tracer.span("router.handle", parent=None) as span:
            span.set_attribute("scenario", request.scenario.value)
            response = self._handle(request)
            span.set_attribute("outcome", response.outcome.value)
        self._record(response)
        return response

    def _handle(self, request: RecRequest) -> RecResponse:
        started = self._clock.now()
        if self.admission is not None:
            decision = self.admission.try_admit()
            if not decision.admitted:
                return RecResponse(
                    request=request,
                    video_ids=(),
                    latency_seconds=self._clock.now() - started,
                    shed=True,
                    shed_reason=decision.reason,
                )
        error: str | None = None
        degraded = False
        deadline_exceeded = False
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

        return RecResponse(
            request=request,
            video_ids=videos,
            latency_seconds=self._clock.now() - started,
            error=error,
            degraded=degraded,
            deadline_exceeded=deadline_exceeded,
        )

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Plain-dict summary of both scenarios, read off the registry.

        Reading creates no series: an idle scenario reports zeros and
        exports nothing.  ``requests`` is the sum over outcomes.
        """
        out: dict[str, dict[str, float]] = {}
        for scenario in Scenario:
            name = scenario.value
            counts = {
                outcome: _count(self._requests.peek((name, outcome.value)))
                for outcome in Outcome
            }
            out[name] = {
                "requests": sum(counts.values()),
                "errors": counts[Outcome.ERROR],
                "empty": _count(self._empty.peek(name)),
                "fallbacks": counts[Outcome.DEGRADED],
                "shed": counts[Outcome.SHED],
                "deadline_exceeded": counts[Outcome.DEADLINE_EXCEEDED],
                **_latency_ms(self._latency.peek(name)),
            }
        return out
