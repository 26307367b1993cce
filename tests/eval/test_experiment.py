"""Tests for the continuous-experimentation engine (Experiment)."""

import math

import pytest

from repro.data import SyntheticWorld, WorldConfig
from repro.errors import ConfigError
from repro.eval import ArmStats, Experiment, ExperimentResult
from tests.support.world import best_videos


class _FixedArm:
    def __init__(self, recs):
        self.recs = list(recs)
        self.observed = 0

    def observe(self, action):
        self.observed += 1

    def recommend_ids(self, user_id, current_video=None, n=None, now=None):
        return self.recs[: (n or 10)]


class _OracleArm(_FixedArm):
    """Recommends each user's ground-truth best (or worst) videos."""

    def __init__(self, world, best):
        super().__init__([])
        self.world = world
        self.best = best

    def recommend_ids(self, user_id, current_video=None, n=None, now=None):
        k = n or 10
        videos = best_videos(self.world, user_id, len(self.world.videos))
        return videos[:k] if self.best else videos[-k:]


@pytest.fixture(scope="module")
def small_world():
    return SyntheticWorld(WorldConfig(n_users=25, n_videos=40, days=3, seed=5))


# Pinned from the original fixed hash-split A/B loop on the fixture above
# with days=3, seed=11 — the Experiment hash path must reproduce it draw
# for draw.
LEGACY_ANTI_IMPRESSIONS = [120, 120, 120]
LEGACY_ANTI_CLICKS = [14, 11, 12]
LEGACY_ORACLE_IMPRESSIONS = [130, 130, 130]
LEGACY_ORACLE_CLICKS = [58, 51, 53]
LEGACY_ARM_OF = ["anti", "oracle", "anti", "oracle", "anti", "oracle"]


class TestHashPathLegacyEquivalence:
    def _arms(self, world):
        return {"oracle": _OracleArm(world, True), "anti": _OracleArm(world, False)}

    def test_experiment_reproduces_legacy_golden(self, small_world):
        result = Experiment(
            small_world, self._arms(small_world), days=3, seed=11
        ).run()
        anti, oracle = result.arms["anti"], result.arms["oracle"]
        assert anti.impressions == LEGACY_ANTI_IMPRESSIONS
        assert anti.clicks == LEGACY_ANTI_CLICKS
        assert oracle.impressions == LEGACY_ORACLE_IMPRESSIONS
        assert oracle.clicks == LEGACY_ORACLE_CLICKS

    def test_arm_assignment_is_pinned(self, small_world):
        exp = Experiment(small_world, self._arms(small_world), days=1)
        assert [exp.arm_of(f"u{i}") for i in range(6)] == LEGACY_ARM_OF


class TestInterleaving:
    def test_team_draft_slots_are_disjoint_and_credited(self, small_world):
        a = _FixedArm([f"v{i}" for i in range(10)])
        b = _FixedArm([f"v{i}" for i in range(5, 15)])
        exp = Experiment(
            small_world, {"a": a, "b": b}, days=1, assignment="interleave"
        )
        slots = exp._interleave({"a": a.recs, "b": b.recs})
        shown = [vid for vid, _ in slots]
        assert len(shown) == len(set(shown)) == 10
        credits = {arm for _, arm in slots}
        assert credits == {"a", "b"}
        # Team draft: each arm drafts once per round, so credit is split
        # evenly when both lists are long enough.
        assert sum(1 for _, arm in slots if arm == "a") == 5

    def test_exhausted_lists_terminate(self, small_world):
        exp = Experiment(
            small_world,
            {"a": _FixedArm([]), "b": _FixedArm([])},
            days=1,
            assignment="interleave",
        )
        assert exp._interleave({"a": ["v1"], "b": ["v1"]}) == [("v1", "a")] or \
            exp._interleave({"a": ["v1"], "b": ["v1"]}) == [("v1", "b")]

    def test_all_arms_served_every_day(self, small_world):
        arms = {
            "oracle": _OracleArm(small_world, True),
            "anti": _OracleArm(small_world, False),
        }
        result = Experiment(
            small_world, arms, days=2, assignment="interleave", seed=11
        ).run()
        for stats in result.arms.values():
            assert all(i > 0 for i in stats.impressions)
        assert result.assignment == "interleave"

    def test_interleaved_oracle_still_wins(self, small_world):
        arms = {
            "oracle": _OracleArm(small_world, True),
            "anti": _OracleArm(small_world, False),
        }
        result = Experiment(
            small_world, arms, days=3, assignment="interleave", seed=11
        ).run()
        ctr = result.overall_ctr()
        assert ctr["oracle"] > ctr["anti"]

    def test_shared_feedback_reaches_all_arms(self, small_world):
        a = _FixedArm(small_world.video_ids()[:10])
        b = _FixedArm(small_world.video_ids()[10:20])
        Experiment(
            small_world, {"a": a, "b": b}, days=1, assignment="interleave"
        ).run()
        assert a.observed == b.observed > 0

    def test_unknown_assignment_rejected(self, small_world):
        with pytest.raises(ConfigError):
            Experiment(
                small_world, {"a": _FixedArm([])}, assignment="bandit"
            )


class TestFullHorizon:
    def test_every_run_lasts_its_full_horizon(self, small_world):
        result = Experiment(
            small_world, {"a": _FixedArm(small_world.video_ids()[:5])}, days=3
        ).run()
        assert result.days == 3
        assert len(result.arms["a"].impressions) == 3


class TestResultAggregation:
    def test_days_won_skips_unserved_days(self):
        result = ExperimentResult(
            arms={
                "a": ArmStats(impressions=[10, 0, 10], clicks=[5, 0, 1]),
                "b": ArmStats(impressions=[10, 10, 10], clicks=[1, 5, 2]),
            },
            days=3,
        )
        assert result.days_won("a") == 1  # day 0; day 1 unserved, day 2 lost
        assert result.days_won("b") == 2

    def test_improvement_table_skips_never_served_arms(self):
        result = ExperimentResult(
            arms={
                "a": ArmStats(impressions=[10], clicks=[5]),
                "ghost": ArmStats(impressions=[0], clicks=[0]),
            },
            days=1,
        )
        table = result.improvement_table()
        assert table == {}
        assert math.isnan(result.overall_ctr()["ghost"])
