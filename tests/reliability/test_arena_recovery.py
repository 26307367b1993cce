"""Recovery semantics specific to the arena parameter layout.

The arenas are two values of the model state, so the ordinary
checkpoint/restore machinery must capture them wholesale — and,
critically, a model constructed *before* the restore (the recovery
manager's order: build the recommender, then load the checkpoint into its
state) must see the restored arenas, because the model reads them from the
state per access instead of caching them.
"""

import pickle

import numpy as np

from repro.clock import VirtualClock
from repro.config import ReproConfig
from repro.core import MFModel, ModelState, RealtimeRecommender
from repro.core.arena import FactorArena
from repro.reliability import ActionWAL, CheckpointManager, RecoveryManager


def test_checkpoint_snapshots_arena_as_single_values(
    small_world, small_split, tmp_path
):
    state = ModelState()
    rec = RealtimeRecommender(
        small_world.videos,
        state=state,
        clock=VirtualClock(0.0),
        users=small_world.users,
    )
    rec.observe_stream(small_split.train[:200])
    # One arena per entity kind, not one value per entity.
    assert type(state.users) is type(state.videos) is FactorArena
    manager = CheckpointManager(tmp_path / "ckpts", fsync=False)
    info = manager.create(state, metadata={"trained_actions": 200})
    assert info.metadata == {"trained_actions": 200}

    restored = ModelState()
    manager.restore(info, restored)
    clone = MFModel(state=restored)
    assert clone.n_users == rec.model.n_users
    videos = sorted(rec.model.video_rows()[0])
    for user_id in sorted(small_world.users)[:5]:
        np.testing.assert_array_equal(
            clone.predict_many(user_id, videos),
            rec.model.predict_many(user_id, videos),
        )


def test_model_constructed_before_restore_sees_restored_arena(
    small_world, small_split, tmp_path
):
    # Train, checkpoint, "crash".
    state_a = ModelState()
    rec_a = RealtimeRecommender(
        small_world.videos,
        state=state_a,
        clock=VirtualClock(0.0),
        users=small_world.users,
    )
    rec_a.observe_stream(small_split.train[:150])
    manager = CheckpointManager(tmp_path / "ckpts", fsync=False)
    info = manager.create(state_a)

    # Recovery order: the recommender (and its MFModel) exists BEFORE the
    # checkpoint lands in its state.
    state_b = ModelState()
    rec_b = RealtimeRecommender(
        small_world.videos,
        state=state_b,
        clock=VirtualClock(0.0),
        users=small_world.users,
    )
    assert rec_b.model.n_users == 0
    manager.restore(info, state_b)
    assert rec_b.model.n_users == rec_a.model.n_users
    videos = sorted(rec_a.model.video_rows()[0])
    for user_id in sorted(small_world.users)[:5]:
        np.testing.assert_array_equal(
            rec_b.model.predict_many(user_id, videos),
            rec_a.model.predict_many(user_id, videos),
        )


def test_full_recovery_with_wal_replay_on_arena(
    small_world, small_split, tmp_path
):
    actions = small_split.train[:240]
    wal_a = ActionWAL(tmp_path / "wal-a", fsync=False)
    state_a = ModelState()
    rec_a = RealtimeRecommender(
        small_world.videos,
        config=ReproConfig(),
        state=state_a,
        clock=VirtualClock(0.0),
        users=small_world.users,
        wal=wal_a,
    )
    manager = CheckpointManager(tmp_path / "ckpts", fsync=False)
    rec_a.observe_stream(actions[:150])
    manager.create(state_a, wal_seq=150)
    rec_a.observe_stream(actions[150:])  # these survive only in the WAL

    # Uninterrupted reference run.
    ref = RealtimeRecommender(
        small_world.videos,
        state=ModelState(),
        clock=VirtualClock(0.0),
        users=small_world.users,
    )
    ref.observe_stream(actions)

    # Recover: fresh state, recommender constructed first, checkpoint
    # restored underneath it, WAL tail replayed through observe().
    state_c = ModelState()
    rec_c = RealtimeRecommender(
        small_world.videos,
        state=state_c,
        clock=VirtualClock(0.0),
        users=small_world.users,
    )
    recovery = RecoveryManager(manager, ActionWAL(tmp_path / "wal-a", fsync=False))
    report = recovery.recover(state_c, rec_c.observe)
    assert report.replayed == 90
    now = max(a.timestamp for a in actions) + 1.0
    for user_id in sorted(small_world.users)[:8]:
        assert rec_c.recommend_ids(user_id, n=10, now=now) == ref.recommend_ids(
            user_id, n=10, now=now
        )


def test_arena_value_roundtrips_through_pickle():
    arena = FactorArena(4)
    arena.put("e", np.arange(4.0), 0.5)
    clone = pickle.loads(pickle.dumps(arena))
    np.testing.assert_array_equal(clone.vector("e"), np.arange(4.0))
    assert clone.bias("e") == 0.5
