"""MF model persistence: a checkpoint of the model's state, restored into a
fresh state (the recovery path ``repro-serve --data-dir`` serves)."""

import numpy as np
import pytest

from repro.config import MFConfig
from repro.core import MFModel, ModelState
from repro.reliability import CheckpointManager


def _restore(state, tmp_path, f, seed=0):
    """A model over a fresh state holding a checkpoint of ``state``."""
    manager = CheckpointManager(tmp_path / "ckpts", fsync=False)
    restored = ModelState(f)
    manager.restore(manager.create(state), restored)
    return MFModel(MFConfig(f=f, seed=seed), restored)


@pytest.fixture
def trained():
    store = ModelState(6)
    model = MFModel(MFConfig(f=6, seed=3), store)
    model.observe_rating(0.0)
    model.observe_rating(1.0)
    for i in range(10):
        model.sgd_step(f"u{i % 3}", f"v{i % 4}", 1.0, eta=0.05)
    return model, store


class TestSaveLoad:
    def test_round_trip_restores_everything(self, trained, tmp_path):
        model, store = trained
        restored = _restore(store, tmp_path, f=6, seed=99)
        assert restored.n_users == model.n_users
        assert restored.n_videos == model.n_videos
        assert restored.mu == model.mu
        for user in ("u0", "u1", "u2"):
            np.testing.assert_array_equal(
                restored.user_vector(user), model.user_vector(user)
            )
            assert restored.user_bias(user) == model.user_bias(user)
        for video in ("v0", "v1", "v2", "v3"):
            np.testing.assert_array_equal(
                restored.video_vector(video), model.video_vector(video)
            )

    def test_predictions_identical_after_reload(self, trained, tmp_path):
        model, store = trained
        restored = _restore(store, tmp_path, f=6)
        for user in ("u0", "u2"):
            for video in ("v0", "v3"):
                assert restored.predict(user, video) == model.predict(user, video)

    def test_dimension_mismatch_rejected(self, trained, tmp_path):
        # A checkpoint of another dimensionality is refused by the restore
        # itself, not at the first write into its arenas.
        _, store = trained
        with pytest.raises(ValueError, match="f=6.*f=8"):
            _restore(store, tmp_path, f=8)

    def test_model_over_a_state_of_another_dimensionality_is_refused(self):
        with pytest.raises(ValueError, match="f=16.*f=8"):
            MFModel(MFConfig(f=8), ModelState())

    def test_restore_under_a_built_model_refuses_another_dimensionality(
        self, trained, tmp_path
    ):
        """Recovery builds the model first and restores under it: a
        checkpoint of another ``f`` is refused and the state is kept."""
        _, store = trained
        manager = CheckpointManager(tmp_path / "ckpts", fsync=False)
        info = manager.create(store)
        model = MFModel(MFConfig(f=8))
        model.put_user("u", np.ones(8), 0.5)
        with pytest.raises(ValueError, match="f=6.*f=8"):
            manager.restore(info, model.state)
        assert model.n_users == 1 and model.n_videos == 0
        assert model.user_bias("u") == 0.5

    def test_empty_model_round_trip(self, tmp_path):
        restored = _restore(ModelState(4), tmp_path, f=4)
        assert restored.n_users == 0
        assert restored.n_videos == 0
        assert restored.mu == 0.0

    def test_training_continues_after_reload(self, trained, tmp_path):
        """Online learning resumes seamlessly from a checkpoint."""
        _, store = trained
        restored = _restore(store, tmp_path, f=6)
        before = restored.predict("u0", "v0")
        restored.sgd_step("u0", "v0", 1.0, eta=0.05)
        after = restored.predict("u0", "v0")
        assert after != before
