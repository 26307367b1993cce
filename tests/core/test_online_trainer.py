"""Tests for Algorithm 1 — the adjustable online updating strategy."""

import pytest

from repro.config import OnlineConfig
from repro.core import (
    BINARY_MODEL,
    COMBINE_MODEL,
    CONF_MODEL,
    MFModel,
    OnlineTrainer,
)
from repro.data import ActionType, UserAction, Video
from tests.support.obs import registry_total

VIDEOS = {"v1": Video("v1", "t0", duration=1000.0)}


def _trainer(variant=COMBINE_MODEL, **online):
    cfg = OnlineConfig(**online) if online else OnlineConfig()
    return OnlineTrainer(MFModel(), videos=VIDEOS, variant=variant, config=cfg)


def _count(trainer, result):
    return registry_total(
        trainer.registry, "trainer_actions_total", result=result
    )


def _click(user="u1", video="v1", ts=0.0):
    return UserAction(ts, user, video, ActionType.CLICK)


class TestLearningRate:
    def test_eq8_adjustable(self):
        """eta = eta0 + alpha * w for the adjustable CombineModel."""
        trainer = _trainer(COMBINE_MODEL, eta0=0.01, alpha=0.02)
        assert trainer.learning_rate(0.0) == pytest.approx(0.01)
        assert trainer.learning_rate(2.5) == pytest.approx(0.06)

    def test_fixed_for_binary_and_conf(self):
        for variant in (BINARY_MODEL, CONF_MODEL):
            trainer = _trainer(variant, eta0=0.01, alpha=0.02)
            assert trainer.learning_rate(3.5) == pytest.approx(0.01)

    def test_clamped_at_max(self):
        trainer = _trainer(COMBINE_MODEL, eta0=0.01, alpha=1.0, max_eta=0.05)
        assert trainer.learning_rate(100.0) == 0.05


class TestProcessing:
    def test_impression_never_updates_model(self):
        trainer = _trainer()
        result = trainer.process(
            UserAction(0.0, "u1", "v1", ActionType.IMPRESS)
        )
        assert result is None
        assert trainer.model.user_vector("u1") is None
        assert _count(trainer, "skipped_zero") == 1

    def test_impression_still_counts_into_mu(self):
        trainer = _trainer()
        trainer.process(UserAction(0.0, "u1", "v1", ActionType.IMPRESS))
        trainer.process(_click())
        assert trainer.model.mu == pytest.approx(0.5)

    def test_engagement_updates_model(self):
        trainer = _trainer()
        update = trainer.process(_click())
        assert update is not None
        assert trainer.model.user_vector("u1") is not None
        assert trainer.model.video_vector("v1") is not None
        assert _count(trainer, "updated") == 1

    def test_new_entities_initialised_on_first_action(self):
        """Algorithm 1 lines 3-8."""
        trainer = _trainer()
        trainer.process(_click(user="brand-new", video="v1"))
        assert trainer.model.user_vector("brand-new") is not None

    def test_higher_confidence_larger_step(self):
        """The same action sequence moves the model more when the action
        weights are higher (Combine variant)."""
        results = {}
        for kind in (ActionType.CLICK, ActionType.LIKE):
            trainer = _trainer(COMBINE_MODEL, eta0=0.01, alpha=0.05)
            update = trainer.process(UserAction(0.0, "u1", "v1", kind))
            results[kind] = update.eta
        assert results[ActionType.LIKE] > results[ActionType.CLICK]

    def test_conf_variant_uses_weight_as_rating(self):
        trainer = _trainer(CONF_MODEL)
        play = UserAction(0.0, "u1", "v1", ActionType.PLAY)
        feedback = trainer.feedback_for(play)
        assert feedback.rating == pytest.approx(1.5)

    def test_binary_variant_rating_is_one(self):
        trainer = _trainer(BINARY_MODEL)
        play = UserAction(0.0, "u1", "v1", ActionType.PLAY)
        assert trainer.feedback_for(play).rating == 1.0

    def test_playtime_with_unknown_video_skipped(self):
        trainer = _trainer()
        bad = UserAction(0.0, "u1", "ghost", ActionType.PLAYTIME, view_time=10)
        assert trainer.process(bad) is None
        assert _count(trainer, "skipped_invalid") == 1
        assert trainer.model.user_vector("u1") is None

    def test_is_playtime_capable(self):
        trainer = _trainer()
        good = UserAction(0.0, "u", "v1", ActionType.PLAYTIME, view_time=10)
        bad = UserAction(0.0, "u", "nope", ActionType.PLAYTIME, view_time=10)
        assert trainer.is_playtime_capable(good)
        assert not trainer.is_playtime_capable(bad)
        assert trainer.is_playtime_capable(_click(video="nope"))

    def test_process_stream_counts_updates(self):
        trainer = _trainer()
        stream = [
            UserAction(0.0, "u1", "v1", ActionType.IMPRESS),
            _click(ts=1.0),
            _click(user="u2", ts=2.0),
        ]
        for action in stream:
            trainer.process(action)
        assert _count(trainer, "updated") == 2
        assert trainer.seen == 3

    def test_repeated_engagement_raises_prediction(self):
        """Single-step updating: repeated positive actions push the pair's
        prediction up, with impressions keeping mu below 1."""
        trainer = _trainer(BINARY_MODEL, eta0=0.05)
        trainer.process(UserAction(0.0, "u1", "v1", ActionType.IMPRESS))
        trainer.process(_click(ts=0.5))
        first = trainer.model.predict("u1", "v1")
        for i in range(5):
            trainer.process(UserAction(float(i), "u1", "v1", ActionType.IMPRESS))
            trainer.process(_click(ts=float(i) + 0.5))
        assert trainer.model.predict("u1", "v1") > first
