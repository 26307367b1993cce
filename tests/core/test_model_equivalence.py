"""The model plane against the scalar oracle, and against itself.

``tests/reference`` is the paper's Table 1 / Eq. 2, 4-8 written longhand
with no code in common with ``repro.core``; after the same seeded action
stream production must have learned what the oracle learned, for all three
§6.1.2 variants and along every training path (per-action ``process``,
micro-batched ``process_batch``, an ``MFModel.batch_session``, the assembled
``RealtimeRecommender``).  Agreement is to ``RTOL`` — see its comment in
``tests/reference`` for why not to the bit — while the exhaustive Eq. 2
top-10 must be exactly the same list.

The production paths are also compared with *each other*, where the
contract is stronger: batched training and checkpoint restore (with
training resumed after it) reproduce the sequential model byte for byte.
"""

from unittest.mock import Mock

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.config import ReproConfig, RetrievalConfig
from repro.core import MFModel, OnlineTrainer, RealtimeRecommender
from repro.core.variants import ALL_VARIANTS, COMBINE_MODEL
from repro.core.state import ModelState
from repro.reliability import CheckpointManager
from tests.reference import RTOL, ReferenceModel, assert_matches_oracle
from tests.support.obs import counter_totals

VARIANT_IDS = [variant.name for variant in ALL_VARIANTS]


def _oracle(model, actions, videos, variant=COMBINE_MODEL):
    """The reference, fed production's deterministic new-entity vectors."""
    oracle = ReferenceModel(model._init_vector, videos, variant.name)
    for action in actions:
        oracle.process(action)
    return oracle


def _trained_model(actions, videos, variant=COMBINE_MODEL, batch=None):
    state = ModelState()
    model = MFModel(state=state)
    trainer = OnlineTrainer(model, videos=videos, variant=variant)
    if batch is None:
        for action in actions:
            trainer.process(action)
    else:
        for start in range(0, len(actions), batch):
            trainer.process_batch(list(actions[start : start + batch]))
    return model, trainer, state


@pytest.fixture(scope="module", params=ALL_VARIANTS, ids=VARIANT_IDS)
def trained_pair(request, small_world, small_split):
    """``(production model, its trainer, the oracle)`` after 400 actions."""
    actions = small_split.train[:400]
    model, trainer, _ = _trained_model(actions, small_world.videos, request.param)
    return model, trainer, _oracle(model, actions, small_world.videos, request.param)


class TestPredictionEquivalence:
    def test_same_entities_learned(self, trained_pair):
        model, trainer, oracle = trained_pair
        assert oracle.counts["updated"] > 100  # the stream did train
        assert_matches_oracle(model, trainer, oracle)

    def test_scalar_predict_matches_oracle(self, trained_pair, small_world):
        model, _, oracle = trained_pair
        videos = sorted(model.video_rows()[0])[:20] + ["never-seen"]
        for user_id in sorted(small_world.users)[:10] + ["stranger"]:
            for video_id in videos:
                np.testing.assert_allclose(
                    model.predict(user_id, video_id),
                    oracle.predict(user_id, video_id),
                    rtol=RTOL,
                )

    def test_predict_many_matches_oracle(self, trained_pair, small_world):
        model, _, oracle = trained_pair
        videos = sorted(model.video_rows()[0]) + ["never-seen"]
        for user_id in sorted(small_world.users)[:10] + ["stranger"]:
            np.testing.assert_allclose(
                model.predict_many(user_id, videos),
                [oracle.predict(user_id, video_id) for video_id in videos],
                rtol=RTOL,
            )

    def test_predict_many_matches_scalar_predict(self, trained_pair):
        # Same float op order as the scalar loop; only the BLAS
        # accumulation order inside the dot product may differ, so the
        # tolerance is a few ULP rather than exact.
        model, _, oracle = trained_pair
        videos = sorted(model.video_rows()[0]) + ["never-seen"]
        user_id = min(oracle.x)
        batched = model.predict_many(user_id, videos)
        scalar = np.array([model.predict(user_id, v) for v in videos])
        np.testing.assert_allclose(batched, scalar, rtol=1e-14, atol=0.0)

    def test_top_n_matches_oracle(self, trained_pair, small_world):
        model, _, oracle = trained_pair
        videos = sorted(model.video_rows()[0])
        for user_id in sorted(small_world.users)[:10]:
            scores = model.predict_many(user_id, videos)
            ranked = sorted(range(len(videos)), key=lambda i: (-scores[i], videos[i]))
            assert [videos[i] for i in ranked[:10]] == oracle.top_n(user_id, 10)


class TestBatchTrainingEquivalence:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=VARIANT_IDS)
    def test_process_batch_matches_sequential(
        self, variant, small_world, small_split
    ):
        actions = small_split.train[:200]
        seq_model, seq_trainer, _ = _trained_model(
            actions, small_world.videos, variant
        )
        batch_model, batch_trainer, _ = _trained_model(
            actions, small_world.videos, variant, batch=32
        )
        assert batch_model.mu == seq_model.mu
        assert counter_totals(batch_trainer.registry) == counter_totals(
            seq_trainer.registry
        )
        videos = sorted(seq_model.video_rows()[0])
        for user_id in sorted(small_world.users)[:10]:
            np.testing.assert_array_equal(
                batch_model.predict_many(user_id, videos),
                seq_model.predict_many(user_id, videos),
            )
        assert_matches_oracle(
            batch_model,
            batch_trainer,
            _oracle(batch_model, actions, small_world.videos, variant),
        )

    def test_process_batch_writes_once_per_batch(
        self, small_world, small_split, monkeypatch
    ):
        """Why the batched path is cheaper, as a count instead of a clock:
        however many actions train, parameters go out in one batch write
        and ``mu`` in one fold."""
        model = MFModel()
        trainer = OnlineTrainer(model, videos=small_world.videos)
        write = Mock(wraps=model.put_params_many)
        fold = Mock(wraps=model._mu_fold)
        monkeypatch.setattr(model, "put_params_many", write)
        monkeypatch.setattr(model, "_mu_fold", fold)
        updates = trainer.process_batch(list(small_split.train[:64]))
        assert sum(update is not None for update in updates) > 1
        assert write.call_count == 1 and len(write.call_args.args[0]) > 2
        assert fold.call_count == 1

    def test_batch_session_matches_loop(self):
        steps = [
            ("u1", "v1", 1.0, 0.01),
            ("u1", "v2", 2.0, 0.02),
            ("u2", "v1", 1.5, 0.01),
            ("u1", "v1", 3.0, 0.03),
        ]
        loop = MFModel()
        loop_updates = [loop.sgd_step(*step) for step in steps]
        batched = MFModel()
        session = batched.batch_session(
            (user_id for user_id, _, _, _ in steps),
            (video_id for _, video_id, _, _ in steps),
        )
        batch_updates = [session.sgd_step(*step) for step in steps]
        session.commit()
        oracle = ReferenceModel(loop._init_vector, {})
        for step, a, b in zip(steps, loop_updates, batch_updates):
            assert a.error == b.error
            np.testing.assert_array_equal(a.x_u, b.x_u)
            np.testing.assert_array_equal(a.y_i, b.y_i)
            assert a.b_u == b.b_u
            assert a.b_i == b.b_i
            np.testing.assert_allclose(a.error, oracle.sgd_step(*step), rtol=RTOL)
            np.testing.assert_allclose(a.x_u, oracle.x[a.user_id], rtol=RTOL)
            np.testing.assert_allclose(a.y_i, oracle.y[a.video_id], rtol=RTOL)
            np.testing.assert_allclose(a.b_u, oracle.bu[a.user_id], rtol=RTOL)
            np.testing.assert_allclose(a.b_i, oracle.bi[a.video_id], rtol=RTOL)
        for vid in ("v1", "v2"):
            np.testing.assert_array_equal(
                loop.video_vector(vid), batched.video_vector(vid)
            )


class TestPersistence:
    def test_checkpoint_round_trip(self, small_world, small_split, tmp_path):
        src_model, _, src_state = _trained_model(
            small_split.train[:300], small_world.videos
        )
        manager = CheckpointManager(tmp_path / "ckpts", fsync=False)
        info = manager.create(src_state)

        dst_state = ModelState()
        manager.restore(info, dst_state)
        dst_model = MFModel(state=dst_state)
        assert dst_model.mu == src_model.mu
        assert dst_model.n_users == src_model.n_users
        videos = sorted(src_model.video_rows()[0])
        assert sorted(dst_model.video_rows()[0]) == videos
        for user_id in sorted(small_world.users)[:10]:
            np.testing.assert_array_equal(
                dst_model.predict_many(user_id, videos),
                src_model.predict_many(user_id, videos),
            )

    def test_training_resumes_identically_after_restore(
        self, small_world, small_split, tmp_path
    ):
        # The served recovery path: checkpoint, restore into a fresh state,
        # keep training.  The restored model must go on learning exactly
        # what the uninterrupted one learns.
        actions = small_split.train[:300]
        src_model, src_trainer, src_state = _trained_model(
            actions[:200], small_world.videos
        )
        manager = CheckpointManager(tmp_path / "ckpts", fsync=False)
        dst_state = ModelState()
        manager.restore(manager.create(src_state), dst_state)
        dst_model = MFModel(state=dst_state)
        dst_trainer = OnlineTrainer(dst_model, videos=small_world.videos)
        for action in actions[200:]:
            src_trainer.process(action)
            dst_trainer.process(action)
        assert dst_model.mu == src_model.mu
        src_ids, src_vectors, src_biases = src_model.video_rows()
        dst_ids, dst_vectors, dst_biases = dst_model.video_rows()
        assert dst_ids == src_ids
        np.testing.assert_array_equal(dst_vectors, src_vectors)
        np.testing.assert_array_equal(dst_biases, src_biases)
        for user_id in ("u0", "u1", "u2"):
            np.testing.assert_array_equal(
                dst_model.predict_many(user_id, src_ids),
                src_model.predict_many(user_id, src_ids),
            )


class TestRecommenderEquivalence:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=VARIANT_IDS)
    def test_recommender_model_plane_matches_oracle(
        self, variant, small_world, small_split
    ):
        # The assembled system (history, simtable and demographic updates
        # interleaved with training on one state) learns the oracle's model.
        actions = small_split.train[:500]
        rec = RealtimeRecommender(
            small_world.videos,
            users=small_world.users,
            variant=variant,
            clock=VirtualClock(0.0),
            enable_demographic=True,
        )
        rec.observe_stream(actions)
        assert_matches_oracle(
            rec.model,
            rec.trainer,
            _oracle(rec.model, actions, small_world.videos, variant),
        )

    @pytest.mark.parametrize("rebuild", [True, False], ids=["rebuilt", "upserted"])
    def test_ann_mode_serves_the_oracles_top_n_over_every_video(
        self, rebuild, small_world, small_split
    ):
        """``"ann"`` retrieval is exact: for warm users with no history (no
        seeds, nothing excluded) the served list is the oracle's Eq. 2
        top-``n`` over the whole catalog, whether the scan's mirror was
        rebuilt from the model or kept current by the trainer's upserts."""
        actions = small_split.train[:500]
        rec = RealtimeRecommender(
            small_world.videos,
            users=small_world.users,
            config=ReproConfig(retrieval=RetrievalConfig(mode="ann")),
            clock=VirtualClock(0.0),
            enable_demographic=False,
        )
        # Train through the trainer only: factors are learned, histories
        # stay empty.
        for action in actions:
            update = rec.trainer.process(action)
            if update is not None and not rebuild:
                rec.index.upsert(action.video_id, update.y_i, update.b_i)
        if rebuild:
            rec.rebuild_index()
        oracle = _oracle(rec.model, actions, small_world.videos)
        assert len(rec.index) == len(oracle.y)
        for user_id in sorted(oracle.x)[:15]:
            assert rec.history.recent(user_id, 1) == []
            for n in (1, 10, 25):
                assert rec.recommend_ids(user_id, n=n, now=1.0) == oracle.top_n(
                    user_id, n
                )
