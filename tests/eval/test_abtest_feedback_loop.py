"""Tests for the A/B harness's real-time feedback loop — the mechanism
that gives online methods their edge over daily-batch ones (§6.2)."""

import pytest

from repro.data import ActionType, SyntheticWorld, WorldConfig
from repro.eval import Experiment


class _RecordingArm:
    """Serves a fixed list and records every observed action."""

    def __init__(self, recs):
        self.recs = recs
        self.actions = []

    def observe(self, action):
        self.actions.append(action)

    def recommend_ids(self, user_id, current_video=None, n=None, now=None):
        return self.recs[: (n or 10)]


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld(WorldConfig(n_users=15, n_videos=25, days=1, seed=6))


class TestFeedbackLoop:
    def test_clicks_feed_back_into_the_serving_arm(self, world):
        arm = _RecordingArm(world.video_ids()[:8])
        harness = Experiment(
            world, arms={"only": arm}, days=1, seed=2, assignment="hash"
        )
        result = harness.run()
        clicks = [
            a
            for a in arm.actions
            if a.action is ActionType.CLICK and a.timestamp > 0
        ]
        # every simulated click produced a CLICK + PLAY feedback pair
        feedback_clicks = result.arms["only"].clicks[0]
        organic_clicks = len(clicks) - feedback_clicks
        assert feedback_clicks > 0
        plays = [a for a in arm.actions if a.action is ActionType.PLAY]
        assert len(plays) >= feedback_clicks

    def test_feedback_goes_only_to_the_users_arm(self, world):
        a = _RecordingArm(world.video_ids()[:8])
        b = _RecordingArm([])  # serves nothing, gets no feedback of its own
        harness = Experiment(
            world, arms={"a": a, "b": b}, days=1, seed=2, assignment="hash"
        )
        result = harness.run()
        assert result.arms["b"].impressions == [0]
        # both arms share the same organic traffic...
        assert b.actions
        # ...and the only difference is a's recommendation feedback:
        # one CLICK + one PLAY per simulated click.
        assert len(a.actions) - len(b.actions) == 2 * result.arms["a"].clicks[0]
