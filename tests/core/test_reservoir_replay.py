"""Tests for the reservoir-replay training extension."""

import pytest

from repro.config import OnlineConfig
from repro.core import MFModel, OnlineTrainer, RealtimeRecommender
from repro.core.reservoir import Reservoir, ReservoirTrainer
from repro.core.variants import COMBINE_MODEL
from repro.data import ActionType, UserAction, Video

VIDEOS = {f"v{i}": Video(f"v{i}", "t", duration=1000.0) for i in range(20)}


def _click(user, video, ts=0.0):
    return UserAction(ts, user, video, ActionType.CLICK)


def _trainer():
    return OnlineTrainer(
        MFModel(), videos=VIDEOS, variant=COMBINE_MODEL,
        config=OnlineConfig(eta0=0.01, alpha=0.01),
    )


class TestReservoir:
    def test_fills_up_to_capacity(self):
        reservoir = Reservoir(capacity=5)
        for i in range(5):
            reservoir.offer(_click("u", f"v{i}", float(i)))
        assert len(reservoir) == 5

    def test_never_exceeds_capacity(self):
        reservoir = Reservoir(capacity=5)
        for i in range(100):
            reservoir.offer(_click("u", f"v{i % 20}", float(i)))
        assert len(reservoir) == 5
        assert reservoir.seen == 100

    def test_uniform_sampling_property(self):
        """Algorithm R: each element survives with probability k/n.

        With capacity 10 over 100 elements, early and late elements should
        be retained at comparable rates across many runs.
        """
        early_hits = late_hits = 0
        for seed in range(300):
            reservoir = Reservoir(capacity=10, seed=seed)
            for i in range(100):
                reservoir.offer(_click("u", f"v{i % 20}", float(i)))
            kept = {a.timestamp for a in reservoir.sample(10)}
            early_hits += sum(1 for t in kept if t < 50)
            late_hits += sum(1 for t in kept if t >= 50)
        ratio = early_hits / late_hits
        assert 0.7 < ratio < 1.4

    def test_sample_bounded(self):
        reservoir = Reservoir(capacity=5)
        reservoir.offer(_click("u", "v1"))
        assert len(reservoir.sample(10)) == 1
        assert reservoir.sample(0) == []

    def test_empty_sample(self):
        assert Reservoir(capacity=3).sample(2) == []

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Reservoir(capacity=0)


class TestReservoirTrainer:
    def test_zero_replays_equals_plain_trainer(self):
        plain = _trainer()
        wrapped = ReservoirTrainer(_trainer(), capacity=50, replays=0)
        stream = [_click(f"u{i % 4}", f"v{i % 6}", float(i)) for i in range(40)]
        for action in stream:
            plain.process(action)
            wrapped.process(action)
        for user in ("u0", "u3"):
            for video in ("v0", "v5"):
                assert wrapped.model.predict(user, video) == pytest.approx(
                    plain.model.predict(user, video)
                )
        assert wrapped.stats.replayed == 0

    def test_replays_happen(self):
        wrapped = ReservoirTrainer(_trainer(), capacity=50, replays=2, seed=1)
        stream = [_click(f"u{i % 4}", f"v{i % 6}", float(i)) for i in range(40)]
        for action in stream:
            wrapped.process(action)
        assert wrapped.stats.replayed > 0
        assert len(wrapped.reservoir) == 40

    def test_impressions_not_stored(self):
        wrapped = ReservoirTrainer(_trainer(), capacity=10, replays=1)
        wrapped.process(UserAction(0.0, "u", "v1", ActionType.IMPRESS))
        assert len(wrapped.reservoir) == 0

    def test_replay_accelerates_convergence(self):
        """Replaying history drives pair predictions further per new
        observation — the benefit the reservoir approach buys."""
        plain = _trainer()
        wrapped = ReservoirTrainer(_trainer(), capacity=100, replays=3, seed=2)
        stream = []
        for i in range(30):
            # impressions keep mu < 1, so positives carry real error signal
            stream.append(
                UserAction(float(i), "u0", f"v{i % 3}", ActionType.IMPRESS)
            )
            stream.append(_click("u0", f"v{i % 3}", float(i) + 0.5))
        for action in stream:
            plain.process(action)
            wrapped.process(action)
        plain_score = plain.model.predict("u0", "v0")
        replay_score = wrapped.model.predict("u0", "v0")
        assert replay_score > plain_score

    def test_validation(self):
        with pytest.raises(ValueError):
            ReservoirTrainer(_trainer(), replays=-1)

    def test_a_recommender_observes_through_it(
        self, small_world, small_actions
    ):
        """``RealtimeRecommender.observe`` hands the trainer the action's
        feedback; with no replays the wrapped recommender learns exactly
        what the plain one does, hot lists included."""
        plain, wrapped = (
            RealtimeRecommender(small_world.videos, users=small_world.users)
            for _ in range(2)
        )
        wrapped.trainer = ReservoirTrainer(wrapped.trainer, replays=0)
        plain.observe_stream(small_actions[:1500])
        wrapped.observe_stream(small_actions[:1500])
        now = small_actions[1499].timestamp
        for user in sorted(small_world.users)[:10]:
            assert wrapped.recommend(user, now=now) == plain.recommend(
                user, now=now
            )
