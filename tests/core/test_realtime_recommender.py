"""Tests for the end-to-end real-time recommender (Figure 1)."""

import sys
import threading

import pytest

from repro.clock import VirtualClock
from repro.config import ReproConfig
from repro.core import RealtimeRecommender, Recommendation
from repro.data import ActionType, UserAction, Video
from tests.support.world import raw_entries


@pytest.fixture
def recommender(small_world):
    clock = VirtualClock(0.0)
    return RealtimeRecommender(
        small_world.videos,
        users=small_world.users,
        clock=clock,
        enable_demographic=True,
    )


@pytest.fixture
def trained(recommender, small_split):
    recommender.observe_stream(small_split.train)
    recommender.clock.set(max(a.timestamp for a in small_split.train) + 1)
    return recommender


class TestObserve:
    def test_engagement_builds_history(self, small_world):
        rec = RealtimeRecommender(small_world.videos, clock=VirtualClock(0.0))
        rec.observe(UserAction(1.0, "u0", "v0", ActionType.CLICK))
        assert rec.history.recent("u0") == ["v0"]

    def test_impression_does_not_build_history(self, small_world):
        rec = RealtimeRecommender(small_world.videos, clock=VirtualClock(0.0))
        rec.observe(UserAction(1.0, "u0", "v0", ActionType.IMPRESS))
        assert rec.history.recent("u0") == []

    def test_engagement_trains_model(self, small_world):
        rec = RealtimeRecommender(small_world.videos, clock=VirtualClock(0.0))
        rec.observe(UserAction(1.0, "u0", "v0", ActionType.CLICK))
        assert rec.model.user_vector("u0") is not None
        assert rec.model.video_vector("v0") is not None

    def test_co_engagement_builds_similar_table(self, small_world):
        rec = RealtimeRecommender(small_world.videos, clock=VirtualClock(0.0))
        rec.observe(UserAction(1.0, "u0", "v0", ActionType.CLICK))
        rec.observe(UserAction(2.0, "u0", "v1", ActionType.CLICK))
        # The pair is scored and stored in both directions (its *damped*
        # relevance may be <= 0 with near-random cold vectors, so check the
        # raw table rather than the positive-filtered neighbor view).
        assert "v0" in raw_entries(rec.table, "v1")
        assert "v1" in raw_entries(rec.table, "v0")

    def test_stream_count(self, small_world, small_split):
        rec = RealtimeRecommender(small_world.videos, clock=VirtualClock(0.0))
        count = rec.observe_stream(small_split.train[:100])
        assert count == 100


def _seeds(rec, monkeypatch, user_id, current_video=None):
    """The seeds one ``recommend`` call expands through the simtable."""
    seen = []
    select = rec.selector.select

    def spy(seeds, **kwargs):
        seen.append(list(seeds))
        return select(seeds, **kwargs)

    monkeypatch.setattr(rec.selector, "select", spy)
    rec.recommend(user_id, current_video=current_video, n=5)
    (seeds,) = seen
    return seeds


class TestSeeds:
    def test_current_video_is_the_seed(self, trained, monkeypatch):
        assert _seeds(trained, monkeypatch, "u0", current_video="v5") == ["v5"]

    def test_history_seeds_when_not_watching(self, trained, monkeypatch):
        seeds = _seeds(trained, monkeypatch, "u0")
        assert seeds
        assert seeds == trained.history.recent(
            "u0", trained.config.recommend.max_seeds
        )

    def test_unknown_user_no_seeds(self, trained, monkeypatch):
        assert _seeds(trained, monkeypatch, "stranger") == []


class TestRecommend:
    def test_returns_requested_length(self, trained):
        recs = trained.recommend("u0", n=5)
        assert len(recs) <= 5
        assert all(isinstance(r, Recommendation) for r in recs)

    def test_no_duplicates(self, trained):
        ids = trained.recommend_ids("u0", n=10)
        assert len(ids) == len(set(ids))

    def test_recommends_known_videos_only(self, trained, small_world):
        ids = trained.recommend_ids("u0", n=10)
        assert set(ids) <= set(small_world.videos)

    def test_current_video_not_recommended(self, trained):
        """Recommending what the user is already watching is useless."""
        for user in ("u0", "u1", "u2"):
            ids = trained.recommend_ids(user, current_video="v3", n=10)
            assert "v3" not in ids

    def test_mf_scores_sorted_descending_within_mf_block(self, trained):
        recs = trained.recommend("u0", n=10)
        mf_scores = [r.score for r in recs if r.score != 0.0]
        # the MF-ranked portion is ordered
        head = [
            r.score
            for r in recs[: len(mf_scores)]
            if r.score != 0.0
        ]
        assert head == sorted(head, reverse=True)

    def test_cold_user_falls_back_to_demographic(self, trained):
        """A user with no history gets the hot-video fallback, not nothing."""
        recs = trained.recommend_ids("never-seen-user", n=5)
        assert recs  # demographic fallback produced something

    def test_cold_user_without_demographic_gets_nothing(self, small_world, small_split):
        rec = RealtimeRecommender(
            small_world.videos,
            clock=VirtualClock(0.0),
            enable_demographic=False,
        )
        rec.observe_stream(small_split.train[:500])
        assert rec.recommend_ids("never-seen-user", n=5) == []

    def test_latency_recorded(self, trained):
        trained.recommend("u0", n=5)
        assert trained.request_latency.count >= 1
        assert trained.request_latency.mean > 0

    def test_latency_count_exact_under_concurrent_recommend(self, trained):
        """Gateway worker threads share one recommender; no call may be
        lost from its latency summary."""
        before = trained.request_latency.count

        def work():
            for _ in range(200):
                trained.recommend("u0", n=5)

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert trained.request_latency.count - before == 1600

    def test_exclude_watched_config(self, small_world, small_split):
        cfg = ReproConfig().with_overrides(recommend={"exclude_watched": True})
        rec = RealtimeRecommender(
            small_world.videos,
            users=small_world.users,
            config=cfg,
            clock=VirtualClock(0.0),
            enable_demographic=False,
        )
        rec.observe_stream(small_split.train)
        now = max(a.timestamp for a in small_split.train)
        for user in list(small_world.users)[:10]:
            watched = rec.history.watched(user)
            assert not set(rec.recommend_ids(user, n=10, now=now)) & watched

    def test_recommendations_lean_toward_user_taste(
        self, trained, small_world
    ):
        """Across users, mean true affinity of recommended videos beats the
        catalogue average — the system personalises."""
        import numpy as np

        gains = []
        for user in list(small_world.users)[:20]:
            ids = trained.recommend_ids(user, n=10)
            if len(ids) < 5:
                continue
            rec_aff = np.mean([small_world.affinity(user, v) for v in ids])
            all_aff = np.mean(
                [small_world.affinity(user, v) for v in small_world.videos]
            )
            gains.append(rec_aff - all_aff)
        assert np.mean(gains) > 0


class TestDemographicIntegration:
    def test_demographic_slots_inject_hot_videos(self, small_world, small_split):
        cfg = ReproConfig().with_overrides(recommend={"demographic_slots": 0.5})
        rec = RealtimeRecommender(
            small_world.videos,
            users=small_world.users,
            config=cfg,
            clock=VirtualClock(0.0),
        )
        rec.observe_stream(small_split.train)
        now = max(a.timestamp for a in small_split.train)
        user = next(iter(small_world.users))
        merged = rec.recommend_ids(user, n=10, now=now)
        db_list = rec.demographic.recommend(user, 10, now=now)
        assert set(merged) & set(db_list)
