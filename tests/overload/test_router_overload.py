"""Router overload behaviour: saturation shedding, deadlines, breaker failover.

Everything runs on a shared :class:`~repro.clock.VirtualClock`: the
backend "takes time" by advancing the clock, the admission bucket refills
on the same clock, and the offered-load generator spaces arrivals exactly
``1/qps`` apart — so every assertion below (shed counts, p99 bounds) is
exact and reproducible.
"""

import pytest

from repro.clock import VirtualClock
from repro.reliability import AdmissionController, CircuitBreaker
from repro.reliability.overload import FAILURE_THRESHOLD, RESET_TIMEOUT
from repro.serving import (
    ARRIVAL_PROCESSES,
    LoadGenerator,
    Outcome,
    RecRequest,
    RequestRouter,
    Scenario,
)


class _SimulatedBackend:
    """A backend whose service time is simulated on the virtual clock."""

    def __init__(self, clock, service_time=0.0, fail=False):
        self.clock = clock
        self.service_time = service_time
        self.fail = fail
        self.calls = 0

    def recommend_ids(self, user_id, current_video=None, n=None, now=None):
        self.calls += 1
        if self.service_time:
            self.clock.advance(self.service_time)
        if self.fail:
            raise RuntimeError("backend down")
        return [f"v{i}" for i in range(n or 10)]


class TestShedOutcome:
    def test_shed_is_distinct_from_error_and_degraded(self):
        clock = VirtualClock(0.0)
        router = RequestRouter(
            _SimulatedBackend(clock),
            admission=AdmissionController(rate=1.0, burst=1, clock=clock),
            clock=clock,
        )
        ok = router.handle(RecRequest("u1"))
        assert ok.outcome is Outcome.OK
        shed = router.handle(RecRequest("u1"))
        assert shed.outcome is Outcome.SHED
        assert shed.shed and not shed.ok and shed.error is None
        assert shed.shed_reason == "rate"
        stats = router.stats(Scenario.GUESS_YOU_LIKE)
        assert stats.shed == 1 and stats.errors == 0

    def test_shed_request_never_reaches_the_backend(self):
        clock = VirtualClock(0.0)
        backend = _SimulatedBackend(clock)
        router = RequestRouter(
            backend,
            admission=AdmissionController(rate=1.0, burst=1, clock=clock),
            clock=clock,
        )
        router.handle(RecRequest("u1"))
        router.handle(RecRequest("u1"))
        assert backend.calls == 1

    def test_snapshot_exposes_shed_and_percentiles(self):
        clock = VirtualClock(0.0)
        router = RequestRouter(
            _SimulatedBackend(clock, service_time=0.004),
            admission=AdmissionController(rate=1.0, burst=2, clock=clock),
            clock=clock,
        )
        for _ in range(3):
            router.handle(RecRequest("u1"))
        snap = router.snapshot()[Scenario.GUESS_YOU_LIKE.value]
        assert snap["requests"] == 3
        assert snap["shed"] == 1
        assert snap["p99_latency_ms"] == pytest.approx(4.0)
        assert snap["p50_latency_ms"] == pytest.approx(4.0)


class TestSaturation:
    """The acceptance demo: capacity C, offered load 2C."""

    CAPACITY = 100.0  # requests per second

    def _run(self, offered_qps, n_requests=400, process="uniform"):
        clock = VirtualClock(0.0)
        backend = _SimulatedBackend(clock, service_time=0.002)
        router = RequestRouter(
            backend,
            admission=AdmissionController(
                rate=self.CAPACITY, burst=10, clock=clock
            ),
            clock=clock,
        )
        generator = LoadGenerator(router, ["u1", "u2", "u3"], ["v1", "v2"])
        report = generator.run_offered(
            n_requests, qps=offered_qps, clock=clock, process=process
        )
        return router, report

    def test_unsaturated_baseline_sheds_nothing(self):
        router, report = self._run(offered_qps=self.CAPACITY * 0.5)
        assert report.shed == 0
        assert report.errors == 0
        assert report.accepted == report.requests

    def test_twice_capacity_sheds_excess_and_bounds_p99(self):
        _, baseline = self._run(offered_qps=self.CAPACITY * 0.5)
        router, saturated = self._run(offered_qps=self.CAPACITY * 2)

        # Excess traffic is shed, nothing raises, everything is accounted.
        assert saturated.shed > 0
        assert saturated.errors == 0
        assert (
            saturated.accepted + saturated.shed + saturated.deadline_exceeded
            == saturated.requests
        )
        # Roughly half the offered load fits through the token bucket.
        assert saturated.accepted == pytest.approx(
            saturated.requests / 2, rel=0.15
        )
        # The headline guarantee: accepted-request p99 stays within 2x of
        # the unsaturated baseline (here they are identical — shedding
        # keeps the served path entirely congestion-free).
        assert saturated.p99_latency_ms <= 2 * baseline.p99_latency_ms
        assert router.total_shed == saturated.shed

    def test_bursts_shed_where_uniform_rides_the_refill(self):
        """Equal mean rate (exactly capacity), different arrival shape:
        bursts of 16 against a 10-token bucket are what it exists for."""
        reports = {
            process: self._run(self.CAPACITY, process=process)[1]
            for process in ARRIVAL_PROCESSES
        }
        for report in reports.values():
            assert report.errors == 0
            assert report.requests == 400
        assert reports["uniform"].shed == 0
        assert reports["burst"].shed > 0

    def test_offered_load_is_open_loop(self):
        """Arrivals stay on the offered schedule even while shedding."""
        _, r1 = self._run(offered_qps=200.0, n_requests=200)
        # 199 inter-arrival gaps of 5ms, plus at most one service time.
        assert r1.elapsed_seconds == pytest.approx(199 * 0.005, abs=0.005)


class TestDeadlines:
    def test_deadline_leaves_budget_for_fallback(self):
        """A slow-but-failing primary must not eat the fallback's time."""
        clock = VirtualClock(0.0)
        primary = _SimulatedBackend(clock, service_time=0.030, fail=True)
        fallback = _SimulatedBackend(clock, service_time=0.001)
        router = RequestRouter(primary, fallback=fallback, clock=clock)
        response = router.handle(RecRequest("u1", deadline_seconds=0.050))
        assert response.outcome is Outcome.DEGRADED
        assert response.video_ids

    def test_deadline_exceeded_counted_separately(self):
        clock = VirtualClock(0.0)
        primary = _SimulatedBackend(clock, service_time=0.080, fail=True)
        fallback = _SimulatedBackend(clock, service_time=0.001)
        router = RequestRouter(primary, fallback=fallback, clock=clock)
        response = router.handle(RecRequest("u1", deadline_seconds=0.050))
        assert response.outcome is Outcome.DEADLINE_EXCEEDED
        assert response.deadline_exceeded and not response.ok
        assert response.error is None  # a deadline miss is not an error
        assert fallback.calls == 0  # no budget left, fallback skipped
        stats = router.stats(Scenario.GUESS_YOU_LIKE)
        assert stats.deadline_exceeded == 1
        assert stats.errors == 0

    def test_no_deadline_means_unbounded_budget(self):
        clock = VirtualClock(0.0)
        primary = _SimulatedBackend(clock, service_time=10.0, fail=True)
        fallback = _SimulatedBackend(clock)
        router = RequestRouter(primary, fallback=fallback, clock=clock)
        assert router.handle(RecRequest("u1")).outcome is Outcome.DEGRADED


class TestPrimaryBreakerFailover:
    def test_open_breaker_skips_primary_and_serves_fallback_fast(self):
        clock = VirtualClock(0.0)
        primary = _SimulatedBackend(clock, service_time=0.050, fail=True)
        fallback = _SimulatedBackend(clock, service_time=0.001)
        breaker = CircuitBreaker(clock=clock)
        router = RequestRouter(
            primary, fallback=fallback, breaker=breaker, clock=clock
        )

        # FAILURE_THRESHOLD failures trip the breaker; each costs the
        # primary's 50ms.
        for _ in range(FAILURE_THRESHOLD):
            response = router.handle(RecRequest("u1"))
            assert response.outcome is Outcome.DEGRADED
            assert response.latency_seconds >= 0.050

        # Open: the primary is skipped entirely -> fast degraded serving.
        calls_before = primary.calls
        response = router.handle(RecRequest("u1"))
        assert response.outcome is Outcome.DEGRADED
        assert primary.calls == calls_before
        assert response.latency_seconds == pytest.approx(0.001)
        stats = router.stats(Scenario.GUESS_YOU_LIKE)
        assert stats.breaker_fast_fails == 1

        # Recovery: after the reset timeout the primary is probed again.
        primary.fail = False
        clock.advance(RESET_TIMEOUT)
        response = router.handle(RecRequest("u1"))
        assert response.outcome is Outcome.OK
        assert primary.calls == calls_before + 1

    def test_breaker_without_fallback_reports_error(self):
        clock = VirtualClock(0.0)
        primary = _SimulatedBackend(clock, fail=True)
        breaker = CircuitBreaker(clock=clock)
        router = RequestRouter(primary, breaker=breaker, clock=clock)
        for _ in range(FAILURE_THRESHOLD):
            router.handle(RecRequest("u1"))
        response = router.handle(RecRequest("u1"))
        assert response.outcome is Outcome.ERROR
        assert "CircuitOpenError" in response.error
