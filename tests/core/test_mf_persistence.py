"""Tests for MF model save/load."""

import numpy as np
import pytest

from repro.config import MFConfig
from repro.core import MFModel
from repro.errors import ModelError


@pytest.fixture
def trained(tmp_path):
    model = MFModel(MFConfig(f=6, seed=3))
    model.observe_rating(0.0)
    model.observe_rating(1.0)
    for i in range(10):
        model.sgd_step(f"u{i % 3}", f"v{i % 4}", 1.0, eta=0.05)
    path = tmp_path / "model.npz"
    model.save(str(path))
    return model, path


class TestSaveLoad:
    def test_round_trip_restores_everything(self, trained):
        model, path = trained
        restored = MFModel(MFConfig(f=6, seed=99))
        restored.load(str(path))
        assert restored.n_users == model.n_users
        assert restored.n_videos == model.n_videos
        assert restored.mu == pytest.approx(model.mu)
        for user in ("u0", "u1", "u2"):
            assert np.allclose(
                restored.user_vector(user), model.user_vector(user)
            )
            assert restored.user_bias(user) == pytest.approx(
                model.user_bias(user)
            )
        for video in ("v0", "v1", "v2", "v3"):
            assert np.allclose(
                restored.video_vector(video), model.video_vector(video)
            )

    def test_predictions_identical_after_reload(self, trained):
        model, path = trained
        restored = MFModel(MFConfig(f=6))
        restored.load(str(path))
        for user in ("u0", "u2"):
            for video in ("v0", "v3"):
                assert restored.predict(user, video) == pytest.approx(
                    model.predict(user, video)
                )

    def test_dimension_mismatch_rejected(self, trained):
        _, path = trained
        wrong = MFModel(MFConfig(f=8))
        with pytest.raises(ModelError, match="dimensionality"):
            wrong.load(str(path))

    def test_empty_model_round_trip(self, tmp_path):
        model = MFModel(MFConfig(f=4))
        path = tmp_path / "empty.npz"
        model.save(str(path))
        restored = MFModel(MFConfig(f=4))
        restored.load(str(path))
        assert restored.n_users == 0
        assert restored.n_videos == 0
        assert restored.mu == 0.0

    def test_training_continues_after_reload(self, trained):
        """Online learning resumes seamlessly from a checkpoint."""
        model, path = trained
        restored = MFModel(MFConfig(f=6))
        restored.load(str(path))
        before = restored.predict("u0", "v0")
        restored.sgd_step("u0", "v0", 1.0, eta=0.05)
        after = restored.predict("u0", "v0")
        assert after != before

    def test_load_reads_each_member_once(self, monkeypatch, tmp_path):
        # Every ``NpzFile.__getitem__`` re-reads the whole member from the
        # archive, so reads inside the per-entity loops made load quadratic.
        reads: list[str] = []
        real_load = np.load

        class CountingNpz:
            def __init__(self, npz):
                self._npz = npz

            def __enter__(self):
                self._npz.__enter__()
                return self

            def __exit__(self, *exc):
                return self._npz.__exit__(*exc)

            def __getitem__(self, name):
                reads.append(name)
                return self._npz[name]

        monkeypatch.setattr(
            np, "load", lambda *a, **kw: CountingNpz(real_load(*a, **kw))
        )
        rng = np.random.default_rng(0)
        for n in (3, 40):
            model = MFModel(MFConfig(f=4))
            model.put_params_many(
                [
                    (kind, f"{kind[0]}{i}", rng.normal(size=4), float(i))
                    for kind in ("user", "video")
                    for i in range(n)
                ]
            )
            path = str(tmp_path / f"model-{n}.npz")
            model.save(path)
            reads.clear()
            restored = MFModel(MFConfig(f=4))
            restored.load(path)
            assert restored.n_users == restored.n_videos == n
            assert restored.video_bias(f"v{n - 1}") == float(n - 1)
            assert sorted(reads) == sorted(
                ["f", "user_ids", "video_ids", "x", "y", "bu", "bi", "mu"]
            )
