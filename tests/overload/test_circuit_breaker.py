"""Circuit-breaker state machine tests.

The breaker transitions are driven entirely by recorded outcomes and an
injected clock, so every test here is deterministic: closed -> open after
the configured consecutive-failure threshold, open -> half-open after the
reset timeout, half-open -> closed on probe success / -> open on probe
failure.
"""

import pytest

from repro.clock import VirtualClock
from repro.errors import CircuitOpenError
from repro.reliability import BreakerState, CircuitBreaker


def _breaker(clock, **kwargs):
    defaults = dict(failure_threshold=3, reset_timeout=10.0, clock=clock)
    defaults.update(kwargs)
    return CircuitBreaker(**defaults)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = _breaker(VirtualClock(0.0))
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self):
        breaker = _breaker(VirtualClock(0.0))
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.opened_count == 1

    def test_success_resets_the_failure_streak(self):
        breaker = _breaker(VirtualClock(0.0))
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_open_to_half_open_after_reset_timeout(self):
        clock = VirtualClock(0.0)
        breaker = _breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(9.999)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.001)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_probe_budget(self):
        clock = VirtualClock(0.0)
        breaker = _breaker(clock, half_open_max_probes=1)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # budget spent, fail fast
        assert breaker.fast_failures >= 1

    def test_half_open_success_closes(self):
        clock = VirtualClock(0.0)
        breaker = _breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens_and_restarts_timeout(self):
        clock = VirtualClock(0.0)
        breaker = _breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 2
        clock.advance(9.0)
        assert breaker.state is BreakerState.OPEN
        clock.advance(1.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_call_fails_fast_when_open(self):
        breaker = _breaker(VirtualClock(0.0), failure_threshold=1)
        with pytest.raises(RuntimeError):
            breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        calls = []
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: calls.append(1))
        assert calls == []  # the backend was never invoked while open

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=0.0)
