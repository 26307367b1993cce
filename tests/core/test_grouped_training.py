"""Tests for demographic training (§5.2.2) — per-group models."""

import pytest

from repro.clock import VirtualClock
from repro.core import GroupedRecommender
from repro.data import GLOBAL_GROUP, ActionType, User, UserAction, Video

VIDEOS = {f"v{i}": Video(f"v{i}", "t", duration=100.0) for i in range(6)}
USERS = {
    "m1": User("m1", gender="m", age_band="young"),
    "m2": User("m2", gender="m", age_band="young"),
    "f1": User("f1", gender="f", age_band="adult"),
    "anon": User("anon", registered=False),
}


@pytest.fixture
def grouped():
    return GroupedRecommender(VIDEOS, USERS, clock=VirtualClock(0.0))


def _click(user, video, ts=0.0):
    return UserAction(ts, user, video, ActionType.CLICK)


class TestRouting:
    def test_actions_routed_to_group_model(self, grouped):
        grouped.observe(_click("m1", "v0"))
        grouped.observe(_click("f1", "v1"))
        male = grouped.recommender_for_group("m|young")
        female = grouped.recommender_for_group("f|adult")
        assert male.model.user_vector("m1") is not None
        assert male.model.user_vector("f1") is None
        assert female.model.user_vector("f1") is not None

    def test_unknown_user_routed_to_global(self, grouped):
        grouped.observe(_click("stranger", "v0"))
        assert GLOBAL_GROUP in grouped.groups()
        model = grouped.recommender_for_group(GLOBAL_GROUP).model
        assert model.user_vector("stranger") is not None

    def test_unregistered_user_routed_to_global(self, grouped):
        grouped.observe(_click("anon", "v0"))
        assert grouped.group_for("anon") == GLOBAL_GROUP

    def test_groups_created_lazily(self, grouped):
        assert grouped.groups() == []
        grouped.observe(_click("m1", "v0"))
        assert grouped.groups() == ["m|young"]

    def test_same_group_same_recommender(self, grouped):
        assert grouped.recommender_for_user("m1") is grouped.recommender_for_user("m2")


class TestPerGroupVectors:
    def test_video_vector_per_group(self, grouped):
        """§5.2.2: 'there will be a video vector y_i for each demographic
        group' — the same video learns separately per group."""
        grouped.observe(_click("m1", "v0"))
        grouped.observe(_click("f1", "v0"))
        male_vec = grouped.recommender_for_group("m|young").model.video_vector("v0")
        female_vec = grouped.recommender_for_group("f|adult").model.video_vector("v0")
        assert male_vec is not None and female_vec is not None
        # trained on different users => diverged
        grouped.observe(_click("m1", "v0", ts=1.0))
        male_vec2 = grouped.recommender_for_group("m|young").model.video_vector("v0")
        assert not (male_vec2 == female_vec).all()

    def test_similarity_computed_within_group(self, grouped):
        grouped.observe(_click("m1", "v0", ts=0.0))
        grouped.observe(_click("m1", "v1", ts=1.0))
        grouped.observe(_click("f1", "v2", ts=0.0))
        grouped.observe(_click("f1", "v3", ts=1.0))
        male_table = grouped.recommender_for_group("m|young").table
        assert "v0" in dict(male_table.neighbors("v1", now=1.0))
        assert "v2" not in dict(male_table.neighbors("v1", now=1.0))


class TestServing:
    def test_recommend_uses_group_model(self, grouped):
        for ts, video in enumerate(["v0", "v1", "v2"]):
            grouped.observe(_click("m1", video, float(ts)))
            grouped.observe(_click("m2", video, float(ts) + 0.5))
        recs = grouped.recommend("m1", n=3, now=5.0)
        assert isinstance(recs, list)

    def test_observe_stream(self, grouped):
        count = grouped.observe_stream(
            [_click("m1", "v0"), _click("f1", "v1")]
        )
        assert count == 2

    def test_recommend_ids_matches_recommend(self, grouped):
        for ts, video in enumerate(["v0", "v1", "v2"]):
            grouped.observe(_click("m1", video, float(ts)))
            grouped.observe(_click("m2", video, float(ts) + 0.5))
        full = grouped.recommend("m1", n=5, now=10.0)
        ids = grouped.recommend_ids("m1", n=5, now=10.0)
        assert ids == [r.video_id for r in full]
