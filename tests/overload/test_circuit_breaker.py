"""Circuit-breaker state machine tests.

The breaker transitions are driven entirely by recorded outcomes and an
injected clock, so every test here is deterministic: closed -> open after
``FAILURE_THRESHOLD`` consecutive failures, open -> half-open after
``RESET_TIMEOUT``, half-open -> closed on probe success / -> open on probe
failure.  Its counts live in its registry.
"""

import pytest

from repro.clock import VirtualClock
from repro.obs import MetricsRegistry
from repro.reliability import BreakerState, CircuitBreaker
from repro.reliability.overload import FAILURE_THRESHOLD, RESET_TIMEOUT
from tests.support.obs import registry_total


def _breaker(clock, registry=None):
    return CircuitBreaker(clock=clock, registry=registry or MetricsRegistry())


def _tripped(clock, registry=None):
    breaker = _breaker(clock, registry)
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure()
    return breaker


def _opened(registry):
    return registry_total(registry, "breaker_transitions_total", to="open")


def _fast_failures(registry):
    return registry_total(registry, "breaker_fast_failures_total")


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = _breaker(VirtualClock(0.0))
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_registry_is_required(self):
        with pytest.raises(TypeError):
            CircuitBreaker(clock=VirtualClock(0.0))

    def test_opens_after_consecutive_failures(self):
        registry = MetricsRegistry()
        breaker = _breaker(VirtualClock(0.0), registry)
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert _opened(registry) == 1

    def test_success_resets_the_failure_streak(self):
        breaker = _breaker(VirtualClock(0.0))
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        breaker.record_success()
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_open_to_half_open_after_reset_timeout(self):
        clock = VirtualClock(0.0)
        breaker = _tripped(clock)
        clock.advance(RESET_TIMEOUT - 0.001)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.001)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_probe_budget(self):
        clock = VirtualClock(0.0)
        registry = MetricsRegistry()
        breaker = _tripped(clock, registry)
        clock.advance(RESET_TIMEOUT)
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # budget spent, fail fast
        assert _fast_failures(registry) == 1

    def test_half_open_success_closes(self):
        clock = VirtualClock(0.0)
        breaker = _tripped(clock)
        clock.advance(RESET_TIMEOUT)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens_and_restarts_timeout(self):
        clock = VirtualClock(0.0)
        registry = MetricsRegistry()
        breaker = _tripped(clock, registry)
        clock.advance(RESET_TIMEOUT)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert _opened(registry) == 2
        clock.advance(RESET_TIMEOUT - 1.0)
        assert breaker.state is BreakerState.OPEN
        clock.advance(1.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_call_fails_fast_when_open(self):
        """While open every call is refused without reaching the backend
        (the router skips to its fallback) and counted as a fast failure."""
        registry = MetricsRegistry()
        breaker = _tripped(VirtualClock(0.0), registry)
        assert [breaker.allow() for _ in range(3)] == [False] * 3
        assert _fast_failures(registry) == 3
        assert _opened(registry) == 1
