"""Tests for the request router."""

import threading

import pytest

from repro.clock import VirtualClock
from repro.core import RealtimeRecommender
from repro.obs import Observability
from repro.serving import RecRequest, RequestRouter, Scenario
from repro.serving.router import MAX_N
from tests.support.obs import registry_total


class _Backend:
    def __init__(self, fail_for=None):
        self.fail_for = fail_for or set()
        self.calls = []

    def recommend_ids(self, user_id, current_video=None, n=None, now=None):
        self.calls.append((user_id, current_video, n, now))
        if user_id in self.fail_for:
            raise RuntimeError("backend exploded")
        if user_id == "empty-user":
            return []
        return [f"rec{i}" for i in range(n or 10)]


def _router(backend, **kwargs):
    return RequestRouter(backend, obs=Observability.create(), **kwargs)


def _requests(router, scenario=Scenario.GUESS_YOU_LIKE, **outcome):
    return registry_total(
        router.obs.registry,
        "serving_requests_total",
        scenario=scenario.value,
        **outcome,
    )


def _total_requests(router):
    return sum(stats["requests"] for stats in router.snapshot().values())


class TestScenarioDispatch:
    def test_related_videos_scenario(self):
        request = RecRequest("u1", current_video="v9")
        assert request.scenario is Scenario.RELATED_VIDEOS

    def test_guess_you_like_scenario(self):
        assert RecRequest("u1").scenario is Scenario.GUESS_YOU_LIKE

    @pytest.mark.parametrize("n", [-3, 0, MAX_N + 1])
    def test_n_outside_range_rejected(self, n):
        with pytest.raises(ValueError, match="n must be in"):
            RecRequest("u1", n=n)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("timestamp", float("inf")),
            ("timestamp", float("nan")),
            ("deadline_seconds", -0.001),
            ("deadline_seconds", float("nan")),
            ("deadline_seconds", float("inf")),
        ],
    )
    def test_non_finite_time_or_bad_deadline_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RecRequest("u1", **{field: value})

    def test_zero_deadline_accepted(self):
        assert RecRequest("u1", deadline_seconds=0.0).deadline_seconds == 0.0

    def test_arguments_forwarded(self):
        backend = _Backend()
        router = _router(backend)
        router.handle(RecRequest("u1", current_video="v2", n=3, timestamp=7.0))
        assert backend.calls == [("u1", "v2", 3, 7.0)]


class TestHandling:
    def test_successful_response(self):
        router = _router(_Backend())
        response = router.handle(RecRequest("u1", n=4))
        assert response.ok
        assert len(response.video_ids) == 4
        assert response.latency_seconds > 0
        assert not response.empty

    def test_backend_failure_isolated(self):
        """A failing request degrades to an empty response, never raises."""
        router = _router(_Backend(fail_for={"bad-user"}))
        response = router.handle(RecRequest("bad-user"))
        assert not response.ok
        assert response.video_ids == ()
        assert "backend exploded" in response.error

    def test_empty_results_counted(self):
        router = _router(_Backend())
        router.handle(RecRequest("empty-user"))
        assert registry_total(
            router.obs.registry,
            "serving_empty_responses_total",
            scenario="guess_you_like",
        ) == 1
        assert router.snapshot()["guess_you_like"]["empty"] == 1


class TestGracefulDegradation:
    def test_fallback_serves_when_primary_fails(self):
        fallback = _Backend()
        router = _router(_Backend(fail_for={"u1"}), fallback=fallback)
        response = router.handle(RecRequest("u1", n=3))
        assert response.ok
        assert response.degraded
        assert len(response.video_ids) == 3
        assert fallback.calls == [("u1", None, 3, None)]
        assert _requests(router, outcome="degraded") == 1
        assert _requests(router, outcome="error") == 0

    def test_fallback_not_consulted_on_success(self):
        fallback = _Backend()
        router = _router(_Backend(), fallback=fallback)
        response = router.handle(RecRequest("u1"))
        assert response.ok and not response.degraded
        assert fallback.calls == []
        assert _requests(router, outcome="degraded") == 0

    def test_both_backends_failing_reports_both_errors(self):
        router = _router(
            _Backend(fail_for={"u1"}), fallback=_Backend(fail_for={"u1"})
        )
        response = router.handle(RecRequest("u1"))
        assert not response.ok
        assert not response.degraded
        assert "fallback failed" in response.error
        assert _requests(router, outcome="error") == 1
        assert _requests(router, outcome="degraded") == 0

    def test_fallbacks_in_snapshot(self):
        router = _router(_Backend(fail_for={"u1"}), fallback=_Backend())
        router.handle(RecRequest("u1"))
        assert router.snapshot()["guess_you_like"]["fallbacks"] == 1


class TestStats:
    def test_per_scenario_accounting(self):
        router = _router(_Backend(fail_for={"bad"}))
        router.handle(RecRequest("u1"))
        router.handle(RecRequest("u2", current_video="v1"))
        router.handle(RecRequest("bad", current_video="v1"))
        related = Scenario.RELATED_VIDEOS
        assert _requests(router) == 1
        assert _requests(router, related) == 2
        assert _requests(router, related, outcome="error") == 1
        assert _total_requests(router) == 3

    def test_snapshot_shape(self):
        router = _router(_Backend())
        router.handle(RecRequest("u1"))
        snap = router.snapshot()
        assert snap["guess_you_like"]["requests"] == 1
        assert snap["guess_you_like"]["mean_latency_ms"] >= 0
        assert snap["related_videos"]["requests"] == 0

    def test_concurrent_handling_counts_exactly(self):
        router = _router(_Backend())

        def fire():
            for i in range(100):
                router.handle(RecRequest(f"u{i}"))

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert _total_requests(router) == 600
        latency = router.obs.registry.get("serving_request_latency_seconds")
        assert latency.labels(scenario="guess_you_like").count == 600


class TestAccounting:
    def test_responses_carry_their_requests(self):
        router = _router(_Backend())
        requests = [RecRequest(f"u{i}") for i in range(5)]
        responses = [router.handle(request) for request in requests]
        assert [r.request for r in responses] == requests
        assert _total_requests(router) == 5

    def test_an_unused_router_has_no_accounting(self):
        """Until a request is handled no counter moves, no latency sample
        exists, and reading the snapshot creates no series."""
        router = _router(_Backend())
        assert all(
            stats["requests"] == 0 and stats["max_latency_ms"] == 0
            for stats in router.snapshot().values()
        )
        # Reading the snapshot created no series either.
        snapshot = router.obs.registry.snapshot()
        assert not snapshot["serving_requests_total"]["series"]
        assert not snapshot["serving_request_latency_seconds"]["series"]


class TestServeWhileTrain:
    def test_reads_stay_healthy_during_training(
        self, small_world, small_split
    ):
        """The system's defining property: four threads read through the
        router with zero errors while a fifth trains the same model."""
        recommender = RealtimeRecommender(
            small_world.videos,
            users=small_world.users,
            clock=VirtualClock(0.0),
        )
        # warm start so there is state to read while writes happen
        recommender.observe_stream(small_split.train[:1000])
        seen_before = recommender.trainer.seen
        router = _router(recommender)
        users = list(small_world.users)
        videos = list(small_world.videos)
        now = small_split.train[1000].timestamp
        responses = []

        def read(worker):
            for i in range(worker, 200, 4):
                current = videos[i % len(videos)] if i % 2 else None
                responses.append(
                    router.handle(
                        RecRequest(
                            users[i % len(users)],
                            current_video=current,
                            timestamp=now,
                        )
                    )
                )

        def write():
            for action in small_split.train[1000:3000]:
                recommender.observe(action)

        readers = [
            threading.Thread(target=read, args=(w,)) for w in range(4)
        ]
        writer = threading.Thread(target=write)
        writer.start()
        for thread in readers:
            thread.start()
        for thread in [*readers, writer]:
            thread.join(timeout=60.0)
            assert not thread.is_alive()

        assert len(responses) == 200
        assert all(r.ok and r.error is None for r in responses)
        catalogue = set(videos)
        assert all(set(r.video_ids) <= catalogue for r in responses)
        # the trainer genuinely ran concurrently and the model advanced
        assert recommender.trainer.seen > seen_before
        assert _total_requests(router) == 200
