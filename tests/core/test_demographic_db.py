"""Tests for the demographic (DB) algorithm and filtering (§5.2.1)."""

import pytest

from repro.clock import VirtualClock
from repro.core import (
    DemographicRecommender,
    HotVideoTracker,
    merge_recommendations,
)
from repro.data import GLOBAL_GROUP, ActionType, User, UserAction
from repro.core.state import ModelState


class TestHotVideoTracker:
    def test_hot_ranks_by_weight(self):
        tracker = HotVideoTracker(clock=VirtualClock(0.0))
        tracker.record("g", "a", weight=1.0, now=0.0)
        tracker.record("g", "b", weight=5.0, now=0.0)
        assert [v for v, _ in tracker.hot("g", 2, now=0.0)] == ["b", "a"]

    def test_scores_accumulate(self):
        tracker = HotVideoTracker(clock=VirtualClock(0.0))
        for _ in range(3):
            tracker.record("g", "a", weight=1.0, now=0.0)
        assert dict(tracker.hot("g", 1, now=0.0))["a"] == pytest.approx(3.0)

    def test_decay_halves_per_half_life(self):
        tracker = HotVideoTracker(half_life=100.0, clock=VirtualClock(0.0))
        tracker.record("g", "a", weight=4.0, now=0.0)
        assert dict(tracker.hot("g", 1, now=100.0))["a"] == pytest.approx(2.0)

    def test_recency_beats_stale_volume(self):
        """A video hot yesterday loses to one hot right now."""
        tracker = HotVideoTracker(half_life=10.0, clock=VirtualClock(0.0))
        tracker.record("g", "old", weight=10.0, now=0.0)
        tracker.record("g", "new", weight=2.0, now=100.0)
        assert tracker.hot("g", 1, now=100.0)[0][0] == "new"

    def test_groups_isolated(self):
        tracker = HotVideoTracker(clock=VirtualClock(0.0))
        tracker.record("g1", "a", now=0.0)
        tracker.record("g2", "b", now=0.0)
        assert [v for v, _ in tracker.hot("g1", 5, now=0.0)] == ["a"]
        assert [v for v, _ in tracker.hot("g2", 5, now=0.0)] == ["b"]

    def test_bounded_tracking_evicts_coldest(self):
        tracker = HotVideoTracker(max_tracked=2, clock=VirtualClock(0.0))
        tracker.record("g", "cold", weight=0.1, now=0.0)
        tracker.record("g", "warm", weight=1.0, now=0.0)
        tracker.record("g", "hot", weight=5.0, now=0.0)
        videos = [v for v, _ in tracker.hot("g", 5, now=0.0)]
        assert "cold" not in videos
        assert len(videos) == 2

    def test_record_leaves_a_table_already_read_unchanged(self):
        """``hot()`` walks a table with no lock while another thread may
        record, so a record builds a new table (bump, insert and eviction
        alike) instead of changing the one a reader holds."""
        state = ModelState()
        tracker = HotVideoTracker(
            max_tracked=2, clock=VirtualClock(0.0), state=state
        )
        tracker.record("g", "a", weight=1.0, now=0.0)
        tracker.record("g", "b", weight=2.0, now=0.0)
        read = state.hot["g"]
        before = dict(read)
        tracker.record("g", "a", weight=1.0, now=1.0)
        tracker.record("g", "c", weight=5.0, now=2.0)
        assert read == before
        assert state.hot["g"] is not read

    def test_empty_group(self):
        tracker = HotVideoTracker(clock=VirtualClock(0.0))
        assert tracker.hot("nobody", 3) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            HotVideoTracker(half_life=0.0)
        with pytest.raises(ValueError):
            HotVideoTracker(max_tracked=0)


class TestDemographicRecommender:
    @pytest.fixture
    def users(self):
        return {
            "u_m": User("u_m", gender="m", age_band="young"),
            "u_f": User("u_f", gender="f", age_band="adult"),
            "u_anon": User("u_anon", registered=False),
        }

    @pytest.fixture
    def db(self, users):
        return DemographicRecommender(
            users, tracker=HotVideoTracker(clock=VirtualClock(0.0))
        )

    def test_group_routing(self, db):
        assert db.group_for("u_m") == "m|young"
        assert db.group_for("u_anon") == GLOBAL_GROUP
        assert db.group_for("total-stranger") == GLOBAL_GROUP

    def test_record_feeds_group_and_global(self, db):
        db.record(UserAction(0.0, "u_m", "v1", ActionType.CLICK))
        assert [v for v, _ in db.tracker.hot("m|young", 5, now=0.0)] == ["v1"]
        assert [v for v, _ in db.tracker.hot(GLOBAL_GROUP, 5, now=0.0)] == ["v1"]

    def test_impressions_ignored(self, db):
        db.record(UserAction(0.0, "u_m", "v1", ActionType.IMPRESS))
        assert db.tracker.hot("m|young", 5, now=0.0) == []

    def test_group_hot_videos_differ(self, db):
        db.record(UserAction(0.0, "u_m", "male-hit", ActionType.CLICK))
        db.record(UserAction(0.0, "u_f", "female-hit", ActionType.CLICK))
        assert db.recommend("u_m", k=1, now=0.0) == ["male-hit"]
        assert db.recommend("u_f", k=1, now=0.0) == ["female-hit"]

    def test_unregistered_user_gets_global_hot(self, db):
        """§5.2.1: new unregistered users get global hot videos."""
        db.record(UserAction(0.0, "u_m", "hit", ActionType.CLICK))
        assert db.recommend("u_anon", k=1, now=0.0) == ["hit"]

    def test_top_up_from_global_when_group_thin(self, db):
        db.record(UserAction(0.0, "u_m", "own", ActionType.CLICK))
        db.record(UserAction(0.0, "u_f", "other1", ActionType.CLICK))
        db.record(UserAction(0.0, "u_f", "other2", ActionType.CLICK))
        recs = db.recommend("u_m", k=3, now=0.0)
        assert recs[0] == "own"
        assert set(recs[1:]) <= {"other1", "other2"}


class TestMergeRecommendations:
    def test_reserves_db_slots(self):
        merged = merge_recommendations(
            primary=[f"p{i}" for i in range(10)],
            demographic=["d1", "d2"],
            n=10,
            demographic_fraction=0.2,
        )
        assert len(merged) == 10
        assert merged[:8] == [f"p{i}" for i in range(8)]
        assert "d1" in merged and "d2" in merged

    def test_no_duplicates(self):
        merged = merge_recommendations(
            primary=["a", "b", "c"],
            demographic=["b", "d"],
            n=4,
            demographic_fraction=0.5,
        )
        assert len(merged) == len(set(merged))

    def test_backfills_from_primary_when_db_short(self):
        merged = merge_recommendations(
            primary=[f"p{i}" for i in range(10)],
            demographic=[],
            n=10,
            demographic_fraction=0.2,
        )
        assert merged == [f"p{i}" for i in range(10)]

    def test_db_fills_when_primary_short(self):
        """Cold users: DB results complete the list (§5.2.1)."""
        merged = merge_recommendations(
            primary=["p0"],
            demographic=["d0", "d1", "d2"],
            n=4,
            demographic_fraction=0.25,
        )
        assert merged == ["p0", "d0", "d1", "d2"]

    def test_zero_fraction_pure_primary(self):
        merged = merge_recommendations(
            primary=["a", "b"], demographic=["d"], n=2, demographic_fraction=0.0
        )
        assert merged == ["a", "b"]

    def test_validation(self):
        with pytest.raises(ValueError):
            merge_recommendations([], [], n=0, demographic_fraction=0.2)
        with pytest.raises(ValueError):
            merge_recommendations([], [], n=5, demographic_fraction=1.2)
