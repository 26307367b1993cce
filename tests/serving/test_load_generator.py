"""Tests for the open-loop load generator."""

import pytest

from repro.clock import VirtualClock
from repro.serving import LoadGenerator, RequestRouter, Scenario


class _Backend:
    def recommend_ids(self, user_id, current_video=None, n=None, now=None):
        return ["v1", "v2"]


class TestLoadGenerator:
    def test_fires_requested_volume(self):
        clock = VirtualClock(0.0)
        router = RequestRouter(_Backend(), clock=clock)
        generator = LoadGenerator(router, ["u1", "u2"], ["v1", "v2"])
        report = generator.run_offered(80, qps=40.0, clock=clock)
        assert report.requests == 80
        assert router.total_requests == 80
        assert report.errors == 0
        assert report.qps == pytest.approx(80 / (79 / 40.0))
        assert len(report.latencies_ms) == 80
        assert report.p99_latency_ms >= report.mean_latency_ms >= 0

    def test_scenario_mix_respected(self):
        clock = VirtualClock(0.0)
        router = RequestRouter(_Backend(), clock=clock)
        generator = LoadGenerator(
            router, ["u1"], ["v1"], related_fraction=1.0
        )
        generator.run_offered(20, qps=10.0, clock=clock)
        assert router.stats(Scenario.RELATED_VIDEOS).requests == 20
        assert router.stats(Scenario.GUESS_YOU_LIKE).requests == 0

    def test_validation(self):
        clock = VirtualClock(0.0)
        router = RequestRouter(_Backend(), clock=clock)
        with pytest.raises(ValueError):
            LoadGenerator(router, [], ["v1"])
        with pytest.raises(ValueError):
            LoadGenerator(router, ["u"], ["v"], related_fraction=2.0)
        generator = LoadGenerator(router, ["u"], ["v"])
        with pytest.raises(ValueError):
            generator.run_offered(0, qps=10.0, clock=clock)
        with pytest.raises(ValueError):
            generator.run_offered(10, qps=0.0, clock=clock)

    def test_request_mix_continues_across_calls(self):
        """One random stream per generator: two runs of 30 offer the same
        users as one run of 60, not the first 30 twice."""

        def users_asked(*counts):
            clock = VirtualClock(0.0)
            asked = []

            class Recording(_Backend):
                def recommend_ids(self, user_id, **kwargs):
                    asked.append(user_id)
                    return super().recommend_ids(user_id, **kwargs)

            generator = LoadGenerator(
                RequestRouter(Recording(), clock=clock),
                [f"u{i}" for i in range(50)],
                ["v1"],
                seed=5,
            )
            for count in counts:
                generator.run_offered(count, qps=10.0, clock=clock)
            return asked

        assert users_asked(30, 30) == users_asked(60)
        assert users_asked(30, 30)[:30] != users_asked(30, 30)[30:]
