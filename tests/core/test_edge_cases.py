"""Edge-case tests across the core package."""

import pytest

from repro.clock import VirtualClock
from repro.core import (
    HotVideoTracker,
    MFModel,
    RealtimeRecommender,
    SimilarVideoTable,
)
from repro.config import MFConfig, SimilarityConfig
from repro.data import ActionType, UserAction, Video
from tests.support.world import raw_entries


class TestRecommenderEdges:
    def test_n_larger_than_catalogue(self, small_world, small_split):
        rec = RealtimeRecommender(
            small_world.videos, users=small_world.users, clock=VirtualClock(0.0)
        )
        rec.observe_stream(small_split.train[:500])
        now = small_split.train[500].timestamp
        result = rec.recommend_ids("u0", n=10_000, now=now)
        assert len(result) <= len(small_world.videos)
        assert len(result) == len(set(result))

    def test_action_for_unknown_video_is_harmless(self, small_world):
        rec = RealtimeRecommender(small_world.videos, clock=VirtualClock(0.0))
        rec.observe(UserAction(0.0, "u0", "not-in-catalogue", ActionType.CLICK))
        # trains the MF pair (ids are opaque to MF) but cannot enter the
        # similar tables (no metadata) — and nothing crashes.
        assert rec.model.video_vector("not-in-catalogue") is not None
        assert "not-in-catalogue" not in rec.table

    def test_same_timestamp_actions(self, small_world):
        rec = RealtimeRecommender(small_world.videos, clock=VirtualClock(0.0))
        for video in ("v0", "v1", "v2"):
            rec.observe(UserAction(5.0, "u0", video, ActionType.CLICK))
        assert rec.history.recent("u0")[0] == "v2"

    def test_recommend_before_any_observation(self, small_world):
        rec = RealtimeRecommender(
            small_world.videos, clock=VirtualClock(0.0), enable_demographic=False
        )
        assert rec.recommend_ids("u0", n=5) == []


class TestHotTrackerClockSkew:
    def test_out_of_order_timestamps_never_amplify(self):
        tracker = HotVideoTracker(half_life=100.0, clock=VirtualClock(0.0))
        tracker.record("g", "a", weight=1.0, now=1000.0)
        # an event arriving with an older timestamp must not inflate scores
        tracker.record("g", "a", weight=1.0, now=500.0)
        score = dict(tracker.hot("g", 1, now=1000.0))["a"]
        assert score <= 2.0 + 1e-9


class TestSimTableEdges:
    def test_table_size_one(self):
        videos = {f"v{i}": Video(f"v{i}", "t", 100.0) for i in range(4)}
        model = MFModel(MFConfig(f=4, init_scale=0.5, seed=1))
        for vid in videos:
            model.ensure_video(vid)
        table = SimilarVideoTable(
            videos,
            model,
            config=SimilarityConfig(table_size=1, xi=100.0),
            clock=VirtualClock(0.0),
        )
        table.offer_pair("v0", ["v1", "v2", "v3"], now=0.0)
        assert len(raw_entries(table, "v0")) == 1


class TestMFModelEdges:
    def test_predict_many_empty_list(self):
        model = MFModel(MFConfig(f=4))
        scores = model.predict_many("u", [])
        assert scores.shape == (0,)

    def test_zero_regularization(self):
        model = MFModel(MFConfig(f=4, lam=0.0, seed=1))
        update = model.sgd_step("u", "v", 1.0, eta=0.1)
        assert update.error != 0.0

    def test_huge_rating_does_not_nan(self):
        model = MFModel(MFConfig(f=4, seed=1))
        update = model.sgd_step("u", "v", 1e6, eta=0.001)
        import numpy as np

        assert np.isfinite(update.x_u).all()
        assert np.isfinite(update.b_u)
