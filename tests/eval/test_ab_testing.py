"""Tests for the simulated A/B testing harness (§6.2)."""

import pytest

from repro.data import SyntheticWorld, WorldConfig
from repro.eval import ArmStats, Experiment, ExperimentResult
from tests.support.world import best_videos


class _FixedArm:
    """Always recommends the same list; counts observes and retrains."""

    def __init__(self, recs):
        self.recs = list(recs)
        self.observed = 0
        self.retrained_at = []

    def observe(self, action):
        self.observed += 1

    def recommend_ids(self, user_id, current_video=None, n=None, now=None):
        return self.recs[: (n or 10)]

    def retrain(self, now):
        self.retrained_at.append(now)


class _SilentArm(_FixedArm):
    def __init__(self):
        super().__init__([])


@pytest.fixture(scope="module")
def tiny_world():
    return SyntheticWorld(WorldConfig(n_users=20, n_videos=30, days=2, seed=3))


class TestHarness:
    def test_traffic_split_is_stable(self, tiny_world):
        harness = Experiment(
            tiny_world,
            arms={"a": _SilentArm(), "b": _SilentArm()},
            days=1,
            assignment="hash",
        )
        for user in tiny_world.user_ids():
            assert harness.arm_of(user) == harness.arm_of(user)

    def test_traffic_split_roughly_even(self, tiny_world):
        harness = Experiment(
            tiny_world,
            arms={"a": _SilentArm(), "b": _SilentArm()},
            days=1,
            assignment="hash",
        )
        arms = [harness.arm_of(u) for u in tiny_world.user_ids()]
        assert 0 < arms.count("a") < len(arms)

    def test_every_arm_sees_the_shared_organic_stream(self, tiny_world):
        a, b = _SilentArm(), _SilentArm()
        Experiment(
            tiny_world, arms={"a": a, "b": b}, days=2, assignment="hash"
        ).run()
        assert a.observed == b.observed
        assert a.observed > 0

    def test_ctr_accounting(self, tiny_world):
        good = _FixedArm(tiny_world.video_ids()[:5])
        result = Experiment(
            tiny_world, arms={"good": good}, days=2, assignment="hash"
        ).run()
        stats = result.arms["good"]
        assert len(stats.impressions) == 2
        assert all(i > 0 for i in stats.impressions)
        assert all(0 <= c <= i for c, i in zip(stats.clicks, stats.impressions))
        assert 0.0 <= stats.overall_ctr <= 1.0

    def test_silent_arm_counts_no_impressions(self, tiny_world):
        result = Experiment(
            tiny_world, arms={"quiet": _SilentArm()}, days=1, assignment="hash"
        ).run()
        assert result.arms["quiet"].impressions == [0]

    def test_batch_arms_retrained_daily(self, tiny_world):
        arm = _FixedArm(["v0"])
        Experiment(
            tiny_world, arms={"ar": arm}, days=3, assignment="hash"
        ).run()
        assert len(arm.retrained_at) == 3
        assert arm.retrained_at == sorted(arm.retrained_at)

    def test_ground_truth_arm_beats_antitruth_arm(self, tiny_world):
        """An arm recommending each user's true best videos must out-CTR an
        arm recommending their worst — the harness discriminates quality."""

        class OracleArm(_SilentArm):
            def __init__(self, world, best):
                super().__init__()
                self.world = world
                self.best = best

            def recommend_ids(self, user_id, current_video=None, n=None, now=None):
                k = n or 10
                videos = best_videos(self.world, user_id, len(self.world.videos))
                return videos[:k] if self.best else videos[-k:]

        result = Experiment(
            tiny_world,
            arms={
                "oracle": OracleArm(tiny_world, True),
                "anti": OracleArm(tiny_world, False),
            },
            days=3,
            seed=1,
            assignment="hash",
        ).run()
        ctr = result.overall_ctr()
        assert ctr["oracle"] > ctr["anti"]

    def test_requires_arms(self, tiny_world):
        with pytest.raises(ValueError):
            Experiment(tiny_world, arms={}, days=1, assignment="hash")


class TestResult:
    def _result(self):
        arms = {
            "a": ArmStats(impressions=[100, 100], clicks=[10, 20]),
            "b": ArmStats(impressions=[100, 100], clicks=[5, 15]),
        }
        return ExperimentResult(arms=arms, days=2)

    def test_daily_ctr(self):
        daily = self._result().daily_ctr()
        assert daily["a"] == [0.1, 0.2]
        assert daily["b"] == [0.05, 0.15]

    def test_overall_ctr(self):
        assert self._result().overall_ctr() == {"a": 0.15, "b": 0.10}

    def test_improvement_table(self):
        table = self._result().improvement_table()
        assert table[("a", "b")] == pytest.approx(0.5)
        assert table[("b", "a")] == pytest.approx(-1 / 3)

    def test_days_won(self):
        result = self._result()
        assert result.days_won("a") == 2
        assert result.days_won("b") == 0

    def test_zero_impressions_ctr(self):
        """Never-served days are None, never-served arms NaN — not a fake
        0.0 that is indistinguishable from 'served but never clicked'."""
        import math

        stats = ArmStats(impressions=[0, 10], clicks=[0, 0])
        assert stats.daily_ctr() == [None, 0.0]
        assert stats.overall_ctr == 0.0

        never = ArmStats(impressions=[0], clicks=[0])
        assert never.daily_ctr() == [None]
        assert math.isnan(never.overall_ctr)
