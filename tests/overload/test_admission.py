"""Unit tests for admission control: token bucket and controller."""

import pytest

from repro.clock import VirtualClock
from repro.obs import MetricsRegistry
from repro.reliability import AdmissionController, TokenBucket
from repro.reliability.overload import SHED_RATE
from tests.support.obs import registry_total


def _decisions(registry, decision):
    return registry_total(
        registry, "admission_decisions_total", decision=decision
    )


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
            AdmissionController(rate=rate, registry=MetricsRegistry())


class TestAdmissionController:
    def test_rate_is_required(self):
        with pytest.raises(TypeError):
            AdmissionController(registry=MetricsRegistry())

    def test_registry_is_required(self):
        with pytest.raises(TypeError):
            AdmissionController(rate=1.0)

    def test_rate_shed_reason(self):
        registry = MetricsRegistry()
        controller = AdmissionController(
            rate=1.0, clock=VirtualClock(0.0), registry=registry
        )
        assert controller.try_admit().admitted
        decision = controller.try_admit()
        assert not decision.admitted
        assert decision.reason == SHED_RATE
        assert _decisions(registry, "shed_rate") == 1

    def test_every_decision_is_counted_under_its_label(self):
        registry = MetricsRegistry()
        controller = AdmissionController(
            rate=2.0, clock=VirtualClock(0.0), registry=registry
        )
        decisions = [controller.try_admit() for _ in range(5)]
        assert [d.admitted for d in decisions] == [True, True] + [False] * 3
        assert [d.reason for d in decisions] == [None, None] + [SHED_RATE] * 3
        assert _decisions(registry, "admitted") == 2
        assert _decisions(registry, "shed_rate") == 3
        assert registry_total(registry, "admission_decisions_total") == 5

    def test_an_admission_holds_nothing_to_give_back(self):
        """Only the rate sheds: requests admitted earlier and never
        finished do not hold back the next second's tokens."""
        clock = VirtualClock(0.0)
        controller = AdmissionController(
            rate=3.0, clock=clock, registry=MetricsRegistry()
        )
        for _ in range(3):
            admitted = [controller.try_admit().admitted for _ in range(4)]
            assert admitted == [True, True, True, False]
            clock.advance(1.0)
