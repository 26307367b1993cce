"""Unit tests for admission control: token bucket, concurrency, controller."""

import threading

import pytest

from repro.clock import VirtualClock
from repro.reliability import AdmissionController, ConcurrencyLimiter, TokenBucket
from repro.reliability.overload import SHED_CONCURRENCY, SHED_RATE


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=3.0, clock=VirtualClock(0.0))
        assert [bucket.try_acquire() for _ in range(4)] == [
            True,
            True,
            True,
            False,
        ]

    def test_refills_at_rate_on_injected_clock(self):
        clock = VirtualClock(0.0)
        bucket = TokenBucket(rate=2.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 1 token back at 2 tokens/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_capacity(self):
        """The capacity is one second's worth of tokens."""
        clock = VirtualClock(0.0)
        bucket = TokenBucket(rate=5.0, clock=clock)
        clock.advance(1000.0)
        assert all(bucket.try_acquire() for _ in range(5))
        assert not bucket.try_acquire()

    def test_deterministic_admission_schedule(self):
        """At 2x offered load, exactly every other request is admitted
        once the burst is spent — bit-for-bit reproducible."""
        clock = VirtualClock(0.0)
        bucket = TokenBucket(rate=10.0, clock=clock)
        assert all(bucket.try_acquire() for _ in range(10))  # the burst
        outcomes = []
        for _ in range(20):
            clock.advance(0.05)  # 20 arrivals/s against 10 tokens/s
            outcomes.append(bucket.try_acquire())
        assert outcomes == [False, True] * 10

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0)

    @pytest.mark.parametrize("rate", [0.5, 1e-9, float("nan")])
    def test_rate_below_one_token_is_rejected(self, rate):
        # Capacity is the rate and a request takes one token: such a
        # bucket could never admit anything.
        with pytest.raises(ValueError):
            TokenBucket(rate=rate)
        with pytest.raises(ValueError):
            AdmissionController(rate=rate)


class TestConcurrencyLimiter:
    def test_cap_and_release(self):
        limiter = ConcurrencyLimiter(2)
        assert limiter.try_acquire() and limiter.try_acquire()
        assert not limiter.try_acquire()
        limiter.release()
        assert limiter.try_acquire()

    def test_release_underflow_raises(self):
        limiter = ConcurrencyLimiter(1)
        with pytest.raises(RuntimeError):
            limiter.release()

    def test_thread_safety_never_exceeds_limit(self):
        limiter = ConcurrencyLimiter(3)
        high_water = [0]
        lock = threading.Lock()

        def worker():
            for _ in range(200):
                if limiter.try_acquire():
                    with lock:
                        high_water[0] = max(high_water[0], limiter._inflight)
                    limiter.release()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert high_water[0] <= 3
        assert limiter._inflight == 0


class TestAdmissionController:
    def test_requires_some_limit(self):
        with pytest.raises(ValueError):
            AdmissionController()

    def test_rate_shed_reason(self):
        controller = AdmissionController(rate=1.0, clock=VirtualClock(0.0))
        assert controller.try_admit().admitted
        decision = controller.try_admit()
        assert not decision.admitted
        assert decision.reason == SHED_RATE
        assert controller.shed_rate == 1

    def test_concurrency_shed_reason_and_release(self):
        controller = AdmissionController(max_concurrency=1)
        assert controller.try_admit().admitted
        decision = controller.try_admit()
        assert not decision.admitted
        assert decision.reason == SHED_CONCURRENCY
        controller.release()
        assert controller.try_admit().admitted
        assert controller.admitted == 2
        assert controller.shed == 1

    def test_rate_check_runs_before_concurrency(self):
        """A rate-shed request must not consume a concurrency slot."""
        controller = AdmissionController(
            rate=1.0, max_concurrency=5, clock=VirtualClock(0.0)
        )
        controller.try_admit()
        for _ in range(10):
            assert not controller.try_admit().admitted
        assert controller.shed_concurrency == 0
        assert controller.shed_rate == 10
