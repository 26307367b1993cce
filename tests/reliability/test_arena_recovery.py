"""Recovery semantics specific to the arena parameter layout.

The arena lives as two entries inside the model's meta namespace, so the
ordinary checkpoint/restore machinery must capture it wholesale — and,
critically, a model constructed *before* the restore (the recovery
manager's order: build the recommender, then load state into its store)
must see the restored arenas, because the model reads them from the
store per access instead of caching them.
"""

import numpy as np

from repro.clock import VirtualClock
from repro.config import ReproConfig
from repro.core import MFModel, RealtimeRecommender
from repro.core.arena import FactorArena
from repro.kvstore import InMemoryKVStore
from repro.reliability import ActionWAL, CheckpointManager, RecoveryManager
from tests.support.kv import put


def test_checkpoint_snapshots_arena_as_single_entries(
    small_world, small_split, tmp_path
):
    store = InMemoryKVStore()
    rec = RealtimeRecommender(
        small_world.videos,
        store=store,
        clock=VirtualClock(0.0),
        users=small_world.users,
    )
    rec.observe_stream(small_split.train[:200])
    arena_keys = [
        entry.key
        for entry in store.snapshot_entries()
        if "arena:" in str(entry.key)
    ]
    assert len(arena_keys) == 2  # one per entity kind, not one per entity
    manager = CheckpointManager(tmp_path / "ckpts", fsync=False)
    info = manager.create(store, metadata={"trained_actions": 200})
    assert info.metadata == {"trained_actions": 200}

    restored = InMemoryKVStore()
    manager.restore(info, restored)
    clone = MFModel(store=restored)
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
    store_a = InMemoryKVStore()
    rec_a = RealtimeRecommender(
        small_world.videos,
        store=store_a,
        clock=VirtualClock(0.0),
        users=small_world.users,
    )
    rec_a.observe_stream(small_split.train[:150])
    manager = CheckpointManager(tmp_path / "ckpts", fsync=False)
    info = manager.create(store_a)

    # Recovery order: the recommender (and its MFModel) exists BEFORE the
    # checkpoint lands in its store.
    store_b = InMemoryKVStore()
    rec_b = RealtimeRecommender(
        small_world.videos,
        store=store_b,
        clock=VirtualClock(0.0),
        users=small_world.users,
    )
    assert rec_b.model.n_users == 0
    manager.restore(info, store_b)
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
    store_a = InMemoryKVStore()
    rec_a = RealtimeRecommender(
        small_world.videos,
        config=ReproConfig(),
        store=store_a,
        clock=VirtualClock(0.0),
        users=small_world.users,
        wal=wal_a,
    )
    manager = CheckpointManager(tmp_path / "ckpts", fsync=False)
    rec_a.observe_stream(actions[:150])
    manager.create(store_a, wal_seq=150)
    rec_a.observe_stream(actions[150:])  # these survive only in the WAL

    # Uninterrupted reference run.
    ref = RealtimeRecommender(
        small_world.videos,
        store=InMemoryKVStore(),
        clock=VirtualClock(0.0),
        users=small_world.users,
    )
    ref.observe_stream(actions)

    # Recover: fresh store, recommender constructed first, checkpoint
    # restored underneath it, WAL tail replayed through observe().
    store_c = InMemoryKVStore()
    rec_c = RealtimeRecommender(
        small_world.videos,
        store=store_c,
        clock=VirtualClock(0.0),
        users=small_world.users,
    )
    recovery = RecoveryManager(manager, ActionWAL(tmp_path / "wal-a", fsync=False))
    report = recovery.recover(store_c, rec_c.observe)
    assert report.replayed == 90
    now = max(a.timestamp for a in actions) + 1.0
    for user_id in sorted(small_world.users)[:8]:
        assert rec_c.recommend_ids(user_id, n=10, now=now) == ref.recommend_ids(
            user_id, n=10, now=now
        )


def test_arena_value_roundtrips_through_snapshot_entries():
    store = InMemoryKVStore()
    arena = FactorArena(4)
    arena.put("e", np.arange(4.0), 0.5)
    put(store, ("ns", "arena"), arena)
    restored = InMemoryKVStore()
    restored.restore_entries(store.snapshot_entries())
    clone = restored.get(("ns", "arena"))
    np.testing.assert_array_equal(clone.vector("e"), np.arange(4.0))
    assert clone.bias("e") == 0.5
