"""Overload protection primitives: admission control and circuit breaking.

The paper's deployment absorbs "more than 1 billion user requests every
day, with maximum 0.1 million requests in one second" (§6.2) — a peak no
serving tier survives by queueing alone.  This module provides the three
classic controls the serving layer composes (admission → deadline →
breaker → fallback, see DESIGN.md "Overload semantics"):

* :class:`TokenBucket` — a deterministic rate limiter.  Tokens refill at
  ``rate`` per second on the injected clock and cap at ``rate`` (one
  second's worth, so ``rate`` must be at least 1); a request is admitted
  iff a token is available.  With a
  :class:`~repro.clock.VirtualClock` the refill schedule is exact, so
  saturation tests are bit-for-bit reproducible.
* :class:`AdmissionController` — the bucket in front of the router;
  rejections carry a reason (``"rate"``) and are counted in the registry.
* :class:`CircuitBreaker` — the closed → open → half-open state machine.
  :data:`FAILURE_THRESHOLD` consecutive failures open the circuit; while
  open every call fails fast (no backend invocation) until
  :data:`RESET_TIMEOUT` seconds pass, then one half-open probe decides
  between closing and re-opening.

Everything here takes an injected clock and no RNG, so overload behaviour
in tests is deterministic.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..clock import Clock, SystemClock
from ..obs.registry import Children

if TYPE_CHECKING:
    from ..obs import MetricsRegistry


class TokenBucket:
    """Deterministic token-bucket rate limiter.

    ``rate`` tokens are added per second of *clock* time, up to a
    capacity of ``rate``; the bucket starts full.  A request takes one
    token, so ``rate`` must be at least 1 — a smaller bucket could never
    hold a whole token and would shed everything.  :meth:`try_acquire` is
    non-blocking — overload is shed, never queued.
    """

    def __init__(self, rate: float, clock: Clock | None = None) -> None:
        if not rate >= 1:
            raise ValueError(f"rate must be >= 1 request/s, got {rate}")
        self.rate = float(rate)
        self._clock = clock or SystemClock()
        self._tokens = self.rate
        self._last_refill = self._clock.now()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock.now()
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self.rate, self._tokens + elapsed * self.rate)
            self._last_refill = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; return whether they were granted.

        The comparison carries a tiny epsilon so that refill amounts
        accumulated over many small clock steps (e.g. exactly 0.1 tokens
        per arrival) are not defeated by float rounding.
        """
        with self._lock:
            self._refill_locked()
            if self._tokens + 1e-9 >= tokens:
                self._tokens = max(0.0, self._tokens - tokens)
                return True
            return False


#: Reason code attached to shed admissions.
SHED_RATE = "rate"


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """Outcome of one admission check.

    ``admitted=False`` carries the shed reason.
    """

    admitted: bool
    reason: str | None = None


class AdmissionController:
    """Admission control in front of a serving endpoint.

    A rate limit: a :class:`TokenBucket` of ``rate`` requests per second.
    Every decision is counted in ``registry`` as
    ``admission_decisions_total{decision}`` (``admitted`` or
    ``shed_rate``).  No concurrency cap: the gateway serves one request at
    a time, so a cap could never shed.
    """

    def __init__(
        self,
        rate: float,
        clock: Clock | None = None,
        *,
        registry: "MetricsRegistry",
    ) -> None:
        self._decisions = Children(
            registry.counter(
                "admission_decisions_total",
                "Admission control outcomes, by decision",
                labelnames=("decision",),
            )
        )
        self._bucket = TokenBucket(rate, clock=clock)

    def try_admit(self) -> AdmissionDecision:
        """Admit or shed one request."""
        if not self._bucket.try_acquire():
            self._decisions["shed_rate"].inc()
            return AdmissionDecision(False, SHED_RATE)
        self._decisions["admitted"].inc()
        return AdmissionDecision(True)


class BreakerState(enum.Enum):
    """Circuit breaker states (classic three-state machine)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Consecutive primary failures that trip a closed breaker open.
FAILURE_THRESHOLD = 5
#: Clock seconds an open breaker waits before letting one probe through.
RESET_TIMEOUT = 30.0


class CircuitBreaker:
    """Closed → open → half-open circuit breaker with an injected clock.

    * **closed** — calls flow through; :data:`FAILURE_THRESHOLD`
      *consecutive* failures trip the breaker open (a success resets the
      streak).
    * **open** — :meth:`allow` returns ``False`` until
      :data:`RESET_TIMEOUT` seconds of clock time have passed.
    * **half-open** — one trial call is let through; its success closes
      the breaker, its failure re-opens it (and restarts the timeout).

    Thread-safe; all transitions are driven by :meth:`allow`,
    :meth:`record_success` and :meth:`record_failure`, so the state machine
    is fully deterministic under a :class:`~repro.clock.VirtualClock`.
    ``registry`` holds its counts: ``breaker_transitions_total{name,to}``
    (``to="open"`` is how often it tripped),
    ``breaker_fast_failures_total{name}`` (calls refused while open) and
    the ``breaker_state{name}`` gauge.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        name: str = "breaker",
        *,
        registry: "MetricsRegistry",
    ) -> None:
        self.name = name
        self._clock = clock or SystemClock()
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_sent = False
        self._transitions = Children(
            registry.counter(
                "breaker_transitions_total",
                "Circuit breaker state transitions, by breaker and new state",
                labelnames=("name", "to"),
            )
        )
        self._refused = Children(
            registry.counter(
                "breaker_fast_failures_total",
                "Calls refused without reaching the backend, by breaker",
                labelnames=("name",),
            )
        )
        self._state_gauge = registry.gauge(
            "breaker_state",
            "Current breaker state (0=closed, 1=half_open, 2=open)",
            labelnames=("name",),
        ).labels(name=name)
        self._state_gauge.set(0)

    #: Numeric encoding of breaker states for the ``breaker_state`` gauge.
    _STATE_VALUES = {
        BreakerState.CLOSED: 0,
        BreakerState.HALF_OPEN: 1,
        BreakerState.OPEN: 2,
    }

    def _record_transition_locked(self, to: BreakerState) -> None:
        self._transitions[self.name, to.value].inc()
        self._state_gauge.set(self._STATE_VALUES[to])

    @property
    def state(self) -> BreakerState:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self._clock.now() - self._opened_at >= RESET_TIMEOUT
        ):
            self._state = BreakerState.HALF_OPEN
            self._probe_sent = False
            self._record_transition_locked(BreakerState.HALF_OPEN)

    def _open_locked(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock.now()
        self._consecutive_failures = 0
        self._record_transition_locked(BreakerState.OPEN)

    def allow(self) -> bool:
        """Whether a call may proceed right now (spends the half-open probe)."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.HALF_OPEN and not self._probe_sent:
                self._probe_sent = True
                return True
            self._refused[self.name].inc()
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            # In OPEN a straggler from before the trip finished; ignore it.
            if self._state is BreakerState.HALF_OPEN:
                self._state = BreakerState.CLOSED
                self._record_transition_locked(BreakerState.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._open_locked()
                return
            if self._state is BreakerState.CLOSED:
                self._consecutive_failures += 1
                if self._consecutive_failures >= FAILURE_THRESHOLD:
                    self._open_locked()
