"""End-to-end integration tests across all subsystems."""

import pytest

from repro.clock import VirtualClock
from repro.core import RealtimeRecommender
from repro.data import split_by_day
from repro.eval import Experiment, evaluate
from repro.baselines import HotRecommender
from repro.storm import LocalExecutor
from repro.topology import build_recommendation_topology


class TestLogPipelineEndToEnd:
    def test_raw_logs_through_topology_to_recommendations(
        self, small_world, small_split
    ):
        """Serialize the world to raw log lines, run the full Figure 2
        topology over them, and serve recommendations from its state —
        the complete production path."""
        log_lines = [a.to_log_line() for a in small_split.train]
        clock = VirtualClock(0.0)
        topo, system = build_recommendation_topology(
            log_lines, small_world.videos, users=small_world.users, clock=clock
        )
        metrics = LocalExecutor(topo).run()
        assert metrics.snapshot()["spout"]["emitted"] == len(small_split.train)
        clock.set(max(a.timestamp for a in small_split.train) + 1)
        recommender = system.serving_recommender()
        served = 0
        for user in list(small_world.users)[:20]:
            if recommender.recommend_ids(user, n=5):
                served += 1
        assert served > 0


class TestOfflineProtocolEndToEnd:
    def test_library_recommender_learns_on_paper_world(
        self, medium_world, medium_split
    ):
        """The offline protocol produces sane, positive scores on the
        calibrated world.  (The rMF-vs-Hot ordering needs the full-scale
        world and lives in benchmarks/test_fig7_table5_ab_ctr.py — at this
        reduced fixture scale popularity can still win.)"""
        liked = medium_world.genuinely_liked(medium_split.test)
        rmf = RealtimeRecommender(
            medium_world.videos,
            users=medium_world.users,
            clock=VirtualClock(0.0),
            enable_demographic=False,
        )
        rmf_result = evaluate(
            rmf,
            medium_split.train,
            medium_split.test,
            videos=medium_world.videos,
            liked=liked,
        )
        hot_result = evaluate(
            HotRecommender(exclude_watched=False),
            medium_split.train,
            medium_split.test,
            videos=medium_world.videos,
            liked=liked,
        )
        assert rmf_result.recall(10) > 0
        assert hot_result.recall(10) > 0
        assert 0.0 <= rmf_result.avg_rank <= 1.0
        # rMF must at least be in Hot's league even at toy scale.
        assert rmf_result.recall(10) >= hot_result.recall(10) * 0.5


class TestABTestEndToEnd:
    def test_rmf_arm_vs_hot_arm(self, small_world):
        """A short two-arm A/B run completes and produces sane CTRs."""
        rmf = RealtimeRecommender(
            small_world.videos,
            users=small_world.users,
            clock=VirtualClock(0.0),
        )
        hot = HotRecommender(clock=VirtualClock(0.0))
        harness = Experiment(
            small_world,
            arms={"rMF": rmf, "Hot": hot},
            days=2,
            seed=5,
            assignment="hash",
        )
        result = harness.run()
        assert set(result.daily_ctr()) == {"rMF", "Hot"}
        for series in result.daily_ctr().values():
            assert len(series) == 2
            assert all(0.0 <= ctr <= 1.0 for ctr in series)
        assert result.arms["rMF"].impressions[-1] > 0
