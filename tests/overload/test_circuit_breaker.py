"""Circuit-breaker state machine tests.

The breaker transitions are driven entirely by recorded outcomes and an
injected clock, so every test here is deterministic: closed -> open after
``FAILURE_THRESHOLD`` consecutive failures, open -> half-open after
``RESET_TIMEOUT``, half-open -> closed on probe success / -> open on probe
failure.
"""

from repro.clock import VirtualClock
from repro.reliability import BreakerState, CircuitBreaker
from repro.reliability.overload import FAILURE_THRESHOLD, RESET_TIMEOUT


def _tripped(clock):
    breaker = CircuitBreaker(clock=clock)
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure()
    return breaker


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker(clock=VirtualClock(0.0))
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(clock=VirtualClock(0.0))
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.opened_count == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(clock=VirtualClock(0.0))
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
        breaker = _tripped(clock)
        clock.advance(RESET_TIMEOUT)
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # budget spent, fail fast
        assert breaker.fast_failures >= 1

    def test_half_open_success_closes(self):
        clock = VirtualClock(0.0)
        breaker = _tripped(clock)
        clock.advance(RESET_TIMEOUT)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens_and_restarts_timeout(self):
        clock = VirtualClock(0.0)
        breaker = _tripped(clock)
        clock.advance(RESET_TIMEOUT)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 2
        clock.advance(RESET_TIMEOUT - 1.0)
        assert breaker.state is BreakerState.OPEN
        clock.advance(1.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_call_fails_fast_when_open(self):
        """While open every call is refused without reaching the backend
        (the router skips to its fallback) and counted as a fast failure."""
        breaker = _tripped(VirtualClock(0.0))
        assert [breaker.allow() for _ in range(3)] == [False] * 3
        assert breaker.fast_failures == 3
        assert breaker.opened_count == 1
