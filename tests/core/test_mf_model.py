"""Tests for the biased MF model (Eqs. 2-5)."""

import numpy as np
import pytest

from repro.config import MFConfig
from repro.core import MFModel
from repro.errors import ModelError
from repro.core.state import ModelState


@pytest.fixture
def model():
    return MFModel(MFConfig(f=8, init_scale=0.1, lam=0.02, seed=3))


class TestInitialisation:
    def test_unknown_entities_have_no_vectors(self, model):
        assert model.user_vector("u1") is None
        assert model.video_vector("v1") is None
        assert model.user_vector("u1") is None

    def test_ensure_creates_vector(self, model):
        x = model.ensure_user("u1")
        assert x.shape == (8,)
        assert model.user_vector("u1") is not None

    def test_ensure_is_idempotent(self, model):
        x1 = model.ensure_user("u1")
        x2 = model.ensure_user("u1")
        assert np.array_equal(x1, x2)

    def test_init_deterministic_per_entity(self):
        """Any worker initialising the same entity gets the same vector —
        the idempotence the topology's persist_init=False path needs."""
        m1 = MFModel(MFConfig(f=8, seed=3), ModelState(8))
        m2 = MFModel(MFConfig(f=8, seed=3), ModelState(8))
        assert np.array_equal(m1.ensure_user("u9"), m2.ensure_user("u9"))

    def test_users_and_videos_independent(self, model):
        x = model.ensure_user("e1")
        y = model.ensure_video("e1")
        assert not np.array_equal(x, y)

    def test_counts(self, model):
        model.ensure_user("u1")
        model.ensure_user("u2")
        model.ensure_video("v1")
        assert model.n_users == 2
        assert model.n_videos == 1
        assert set(model.video_rows()[0]) == {"v1"}


class TestMu:
    def test_starts_at_zero(self, model):
        assert model.mu == 0.0

    def test_running_average(self, model):
        for r in (1.0, 0.0, 1.0, 0.0):
            model.observe_rating(r)
        assert model.mu == pytest.approx(0.5)


class TestPrediction:
    def test_cold_prediction_is_mu(self, model):
        model.observe_rating(1.0)
        model.observe_rating(0.0)
        assert model.predict("u?", "v?") == pytest.approx(0.5)

    def test_prediction_formula(self, model):
        """Eq. 2: r_hat = mu + b_u + b_i + x.y"""
        model.observe_rating(1.0)
        x = model.ensure_user("u")
        y = model.ensure_video("v")
        update = model.sgd_step("u", "v", 1.0, eta=0.1)
        expected = (
            model.mu
            + model.user_bias("u")
            + model.video_bias("v")
            + float(model.user_vector("u") @ model.video_vector("v"))
        )
        assert model.predict("u", "v") == pytest.approx(expected)

    def test_predict_many_matches_predict(self, model):
        model.ensure_user("u")
        for i in range(5):
            model.ensure_video(f"v{i}")
        model.sgd_step("u", "v0", 1.0, 0.05)
        videos = [f"v{i}" for i in range(5)] + ["missing"]
        scores = model.predict_many("u", videos)
        for video, score in zip(videos, scores):
            assert score == pytest.approx(model.predict("u", video))

    def test_error_is_rating_minus_prediction(self, model):
        model.ensure_user("u")
        model.ensure_video("v")
        e = model.error("u", "v", 1.0)
        assert e == pytest.approx(1.0 - model.predict("u", "v"))


class TestSGDStep:
    def test_update_reduces_error(self, model):
        """One step with small eta strictly reduces |e| for that pair."""
        before = abs(model.error("u", "v", 1.0))
        model.ensure_user("u")
        model.ensure_video("v")
        before = abs(model.error("u", "v", 1.0))
        model.sgd_step("u", "v", 1.0, eta=0.1)
        after = abs(model.error("u", "v", 1.0))
        assert after < before

    def test_repeated_updates_converge(self, model):
        for _ in range(300):
            model.sgd_step("u", "v", 1.0, eta=0.1)
        assert model.predict("u", "v") == pytest.approx(1.0, abs=0.05)

    def test_update_touches_only_involved_entities(self, model):
        model.sgd_step("u1", "v1", 1.0, 0.1)
        y_before = model.ensure_video("v2").copy()
        b_before = model.video_bias("v2")
        model.sgd_step("u1", "v1", 1.0, 0.1)
        assert np.array_equal(model.video_vector("v2"), y_before)
        assert model.video_bias("v2") == b_before

    def test_error_sign_updates_direction(self, model):
        """Positive error raises the prediction; negative error lowers it."""
        model.ensure_user("u")
        model.ensure_video("v")
        p0 = model.predict("u", "v")
        model.sgd_step("u", "v", p0 + 1.0, eta=0.1)
        assert model.predict("u", "v") > p0
        p1 = model.predict("u", "v")
        model.sgd_step("u", "v", p1 - 1.0, eta=0.1)
        assert model.predict("u", "v") < p1

    def test_nonpositive_eta_rejected(self, model):
        with pytest.raises(ModelError):
            model.sgd_step("u", "v", 1.0, eta=0.0)

    def test_regularization_shrinks_unsupported_weights(self):
        """With rating == current prediction (e=0), lambda decays params."""
        model = MFModel(MFConfig(f=4, lam=0.5, init_scale=0.5, seed=1))
        model.ensure_user("u")
        model.ensure_video("v")
        norm_before = np.linalg.norm(model.user_vector("u"))
        target = model.predict("u", "v")
        model.sgd_step("u", "v", target, eta=0.1)
        assert np.linalg.norm(model.user_vector("u")) < norm_before

    def test_compute_update_without_persist_init_does_not_store(self, model):
        update = model.compute_update("u", "v", 1.0, 0.1, persist_init=False)
        assert model.user_vector("u") is None
        assert model.video_vector("v") is None
        assert update.x_u.shape == (8,)

    def test_compute_then_apply_equals_sgd_step(self):
        m1 = MFModel(MFConfig(f=8, seed=3))
        m2 = MFModel(MFConfig(f=8, seed=3))
        u1 = m1.sgd_step("u", "v", 1.0, 0.1)
        u2 = m2.compute_update("u", "v", 1.0, 0.1, persist_init=False)
        m2.apply_update(u2)
        assert np.allclose(m1.user_vector("u"), m2.user_vector("u"))
        assert np.allclose(m1.video_vector("v"), m2.video_vector("v"))
        assert m1.user_bias("u") == pytest.approx(m2.user_bias("u"))

    def test_put_user_put_video(self, model):
        x = np.ones(8)
        model.put_user("u", x, 0.5)
        assert np.array_equal(model.user_vector("u"), x)
        assert model.user_bias("u") == 0.5
        model.put_video("v", 2 * x, -0.25)
        assert model.video_bias("v") == -0.25


class TestSharedStore:
    def test_shared_store_is_the_single_source_of_truth(self):
        """Two MFModel views over one state see each other's writes."""
        state = ModelState(4)
        writer = MFModel(MFConfig(f=4, seed=2), state)
        reader = MFModel(MFConfig(f=4, seed=2), state)
        writer.sgd_step("u", "v", 1.0, 0.1)
        assert reader.user_vector("u") is not None
        assert np.array_equal(reader.user_vector("u"), writer.user_vector("u"))
