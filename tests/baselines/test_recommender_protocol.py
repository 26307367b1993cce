"""Every recommender in the system satisfies the common serving protocol —
what lets the A/B harness and offline protocol drive them uniformly."""

import pytest

from repro.baselines import (
    AssociationRuleRecommender,
    HotRecommender,
    Recommender,
    SimHashCFRecommender,
)
from repro.clock import VirtualClock
from repro.core import GroupedRecommender, RealtimeRecommender
from repro.data import ActionType, UserAction, Video

VIDEOS = {f"v{i}": Video(f"v{i}", "t", duration=500.0) for i in range(6)}


def _instances():
    return [
        HotRecommender(clock=VirtualClock(0.0)),
        AssociationRuleRecommender(),
        SimHashCFRecommender(),
        RealtimeRecommender(VIDEOS, clock=VirtualClock(0.0)),
        GroupedRecommender(VIDEOS, {}, clock=VirtualClock(0.0)),
    ]


@pytest.mark.parametrize(
    "recommender", _instances(), ids=lambda r: type(r).__name__
)
class TestProtocolCompliance:
    def test_satisfies_runtime_protocol(self, recommender):
        assert isinstance(recommender, Recommender)

    def test_observe_then_recommend_roundtrip(self, recommender):
        for i in range(12):
            recommender.observe(
                UserAction(float(i), f"u{i % 3}", f"v{i % 6}", ActionType.CLICK)
            )
        retrain = getattr(recommender, "retrain", None)
        if callable(retrain):
            retrain(now=100.0)
        result = recommender.recommend_ids("u0", n=5, now=100.0)
        assert isinstance(result, list)
        assert len(result) <= 5
        assert all(isinstance(v, str) for v in result)

    def test_unknown_user_never_crashes(self, recommender):
        result = recommender.recommend_ids("martian", n=3, now=0.0)
        assert isinstance(result, list)

    def test_current_video_variant(self, recommender):
        recommender.observe(UserAction(0.0, "u", "v0", ActionType.CLICK))
        result = recommender.recommend_ids(
            "u", current_video="v0", n=3, now=1.0
        )
        assert isinstance(result, list)
        assert "v0" not in result
