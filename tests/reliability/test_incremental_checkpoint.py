"""Incremental (segment-referencing) checkpoints over the durable tier.

A ``kind="segments"`` checkpoint writes a manifest pointing at the durable
store's sealed segment files instead of re-pickling every entry — O(1) in
dataset size.  Restore rolls the store back to exactly that segment set;
when compaction has deleted a referenced segment the checkpoint is stale
and recovery must fall back to a full WAL replay.
"""

import json
from pathlib import Path

import pytest

from repro.core.recommender import RealtimeRecommender
from repro.errors import CheckpointError, StaleCheckpointError
from repro.kvstore import (
    DurableKVStore,
    InMemoryKVStore,
    ReadThroughCache,
)
from repro.reliability import (
    KIND_FULL,
    KIND_SEGMENTS,
    ActionWAL,
    CheckpointManager,
    RecoveryManager,
)


@pytest.fixture()
def durable(tmp_path):
    with DurableKVStore(
        tmp_path / "kv", fsync="never", segment_max_bytes=1024,
        auto_compact=False,
    ) as store:
        yield store


class TestCreateIncremental:
    def test_manifest_references_segments_only(self, tmp_path, durable):
        for i in range(40):
            durable.put(f"k{i}", "x" * 50)
        manager = CheckpointManager(tmp_path / "ckpt", fsync=False)
        info = manager.create_incremental(durable, wal_seq=40)

        assert info.kind == KIND_SEGMENTS
        assert info.incremental
        assert info.n_entries == 40
        # no entries.pkl — the checkpoint is a manifest, nothing else
        assert sorted(p.name for p in Path(info.path).iterdir()) == [
            "manifest.json"
        ]
        manifest = json.loads((Path(info.path) / "manifest.json").read_text())
        assert manifest["kind"] == KIND_SEGMENTS
        assert manifest["segments"]
        for segment in manifest["segments"]:
            seg_path = durable.root / segment["name"]
            assert seg_path.is_file()
            assert seg_path.stat().st_size == segment["bytes"]

    def test_cost_does_not_grow_with_dataset(self, tmp_path, durable):
        """The checkpoint directory stays manifest-sized however much data
        the store holds (the point of referencing segments)."""
        manager = CheckpointManager(tmp_path / "ckpt", retain=10, fsync=False)
        sizes = []
        for round_ in range(2):
            for i in range(200 * (round_ + 1)):
                durable.put(f"k{round_}-{i}", "x" * 100)
            info = manager.create_incremental(durable)
            sizes.append(
                sum(p.stat().st_size for p in Path(info.path).iterdir())
            )
        assert sizes[1] < sizes[0] * 3  # manifest growth only, not payload

    def test_requires_durable_backing(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt", fsync=False)
        with pytest.raises(CheckpointError):
            manager.create_incremental(InMemoryKVStore())

    def test_works_through_cache_tier(self, tmp_path, durable):
        tier = ReadThroughCache(durable, capacity=8)
        tier.put("k", "v")
        manager = CheckpointManager(tmp_path / "ckpt", fsync=False)
        info = manager.create_incremental(tier)
        assert info.incremental
        assert info.n_entries == 1

    def test_full_checkpoints_unchanged(self, tmp_path, durable):
        durable.put("k", "v")
        manager = CheckpointManager(tmp_path / "ckpt", fsync=False)
        info = manager.create(durable, wal_seq=1)
        assert info.kind == KIND_FULL
        assert not info.incremental
        fresh = InMemoryKVStore()
        assert manager.restore(info, fresh) == 1
        assert fresh.get("k") == "v"


class TestRestoreSegments:
    def test_restore_drops_post_checkpoint_writes(self, tmp_path, durable):
        for i in range(20):
            durable.put(f"k{i}", i)
        manager = CheckpointManager(tmp_path / "ckpt", fsync=False)
        info = manager.create_incremental(durable, wal_seq=20)

        durable.put("k0", "after-checkpoint")
        durable.put("new-key", 1)
        durable.delete("k5")

        tier = ReadThroughCache(durable, capacity=8)
        tier.get("k0")  # warm the cache with the post-checkpoint value
        assert manager.restore(info, tier) == 20
        assert tier.get("k0") == 0  # cache was dropped, disk rolled back
        assert tier.get("new-key") is None
        assert tier.get("k5") == 5

    def test_restore_discards_unflushed_writes_above_the_log(
        self, tmp_path, durable
    ):
        """A write-back tier's post-checkpoint writes may never have reached
        the log; the rollback must drop them too, not flush them later."""
        tier = ReadThroughCache(durable, capacity=8)
        tier.put("k", "checkpointed")
        manager = CheckpointManager(tmp_path / "ckpt", fsync=False)
        info = manager.create_incremental(tier, wal_seq=1)
        assert durable.get("k") == "checkpointed"  # flushed, then sealed
        tier.put("k", "after-checkpoint")
        tier.put("new-key", 1)

        assert manager.restore(info, tier) == 1
        assert tier.flush() == 0
        assert dict(tier.items()) == {"k": "checkpointed"}

    def test_restore_after_reopen(self, tmp_path):
        """The checkpoint outlives the store object that produced it."""
        root = tmp_path / "kv"
        manager = CheckpointManager(tmp_path / "ckpt", fsync=False)
        with DurableKVStore(root, fsync="never") as store:
            store.put("a", 1)
            info = manager.create_incremental(store, wal_seq=1)
            store.put("b", 2)
        with DurableKVStore(root, fsync="never") as reopened:
            assert manager.restore(info, reopened) == 1
            assert reopened.get("a") == 1
            assert reopened.get("b") is None

    def test_compaction_makes_old_checkpoint_stale(self, tmp_path, durable):
        for i in range(30):
            durable.put(f"k{i}", "x" * 60)
        manager = CheckpointManager(tmp_path / "ckpt", fsync=False)
        info = manager.create_incremental(durable)
        durable.compact()
        with pytest.raises(StaleCheckpointError):
            manager.restore(info, durable)
        # data untouched by the failed restore
        assert durable.get("k0") == "x" * 60

    def test_tampered_manifest_rejected(self, tmp_path, durable):
        durable.put("k", "v")
        manager = CheckpointManager(tmp_path / "ckpt", fsync=False)
        info = manager.create_incremental(durable)
        manifest_path = Path(info.path) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["segments"][0]["name"] = "seg-000000000042.log"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            manager.restore(info, durable)

    def test_restore_into_non_durable_store_rejected(self, tmp_path, durable):
        durable.put("k", "v")
        manager = CheckpointManager(tmp_path / "ckpt", fsync=False)
        info = manager.create_incremental(durable)
        with pytest.raises(CheckpointError):
            manager.restore(info, InMemoryKVStore())


class TestRecoveryIntegration:
    N_TOTAL = 200
    N_CHECKPOINT = 120
    N_CRASH = 180

    def _recommender(self, world, store, wal=None):
        return RealtimeRecommender(
            world.videos,
            enable_demographic=False,  # demographic state is not KV-backed
            store=store,
            wal=wal,
        )

    def _tier(self, tmp_path, name):
        durable = DurableKVStore(
            tmp_path / name, fsync="never", segment_max_bytes=64 * 1024
        )
        return ReadThroughCache(durable, capacity=512)

    def test_incremental_recovery_matches_uninterrupted_run(
        self, small_world, small_actions, tmp_path
    ):
        stream = small_actions[: self.N_TOTAL]

        rec_a = self._recommender(small_world, self._tier(tmp_path, "kv-a"))
        rec_a.observe_stream(stream)

        wal = ActionWAL(tmp_path / "wal", segment_max_records=64)
        recovery = RecoveryManager(
            CheckpointManager(tmp_path / "ckpt", fsync=False), wal
        )
        tier_b = self._tier(tmp_path, "kv-b")
        rec_b = self._recommender(small_world, tier_b, wal=wal)
        rec_b.observe_stream(stream[: self.N_CHECKPOINT])
        info = recovery.checkpoint(tier_b, incremental=True)
        assert info.incremental
        rec_b.observe_stream(stream[self.N_CHECKPOINT : self.N_CRASH])
        del rec_b  # crash — the durable files survive, memory does not

        # recover over the SAME durable root: restore_to_segments rolls the
        # log back to the checkpoint cut, then the WAL suffix replays
        tier_c = self._tier(tmp_path, "kv-b")
        rec_c = self._recommender(small_world, tier_c, wal=wal)
        report = recovery.recover(tier_c, rec_c.observe)
        assert report.checkpoint is not None
        assert not report.stale_checkpoint
        assert report.checkpoint.incremental
        assert report.replayed == self.N_CRASH - self.N_CHECKPOINT
        rec_c.observe_stream(stream[self.N_CRASH :])

        now = stream[-1].timestamp + 60.0
        users = {a.user_id for a in stream[:50]}
        for user in sorted(users)[:8]:
            assert rec_c.recommend_ids(user, n=10, now=now) == (
                rec_a.recommend_ids(user, n=10, now=now)
            ), f"recovered top-N diverged for {user}"

    def test_stale_checkpoint_falls_back_to_full_wal_replay(
        self, small_world, small_actions, tmp_path
    ):
        stream = small_actions[: self.N_TOTAL]

        rec_a = self._recommender(small_world, self._tier(tmp_path, "kv-a"))
        rec_a.observe_stream(stream)

        wal = ActionWAL(tmp_path / "wal")
        recovery = RecoveryManager(
            CheckpointManager(tmp_path / "ckpt", fsync=False), wal
        )
        tier_b = self._tier(tmp_path, "kv-b")
        rec_b = self._recommender(small_world, tier_b, wal=wal)
        rec_b.observe_stream(stream[: self.N_CHECKPOINT])
        recovery.checkpoint(tier_b, incremental=True)
        rec_b.observe_stream(stream[self.N_CHECKPOINT :])
        # compaction deletes the checkpointed segment files
        from repro.kvstore import unwrap_durable

        unwrap_durable(tier_b).compact()
        del rec_b

        tier_c = self._tier(tmp_path, "kv-b")
        rec_c = self._recommender(small_world, tier_c, wal=wal)
        report = recovery.recover(tier_c, rec_c.observe)
        assert report.stale_checkpoint
        assert report.checkpoint is None
        assert report.replayed == self.N_TOTAL  # the whole log, from seq 1

        now = stream[-1].timestamp + 60.0
        users = {a.user_id for a in stream[:50]}
        for user in sorted(users)[:8]:
            assert rec_c.recommend_ids(user, n=10, now=now) == (
                rec_a.recommend_ids(user, n=10, now=now)
            )

    def test_crash_before_the_first_checkpoint_replays_onto_an_empty_store(
        self, small_world, small_actions, tmp_path
    ):
        """A first boot killed before its checkpoint leaves the durable tier
        holding *some* prefix of the log (whatever was evicted or flushed)
        and nothing to roll back to.  Replaying from sequence 1 on top of
        it would apply that prefix twice."""
        stream = small_actions[: self.N_TOTAL]

        rec_a = self._recommender(small_world, self._tier(tmp_path, "kv-a"))
        rec_a.observe_stream(stream)

        wal = ActionWAL(tmp_path / "wal")
        recovery = RecoveryManager(
            CheckpointManager(tmp_path / "ckpt", fsync=False), wal
        )
        tier_b = self._tier(tmp_path, "kv-b")
        rec_b = self._recommender(small_world, tier_b, wal=wal)
        rec_b.observe_stream(stream[: self.N_CHECKPOINT])
        tier_b.flush()  # the log now holds a prefix — and no checkpoint does
        rec_b.observe_stream(stream[self.N_CHECKPOINT :])
        del rec_b

        tier_c = self._tier(tmp_path, "kv-b")
        assert len(tier_c) > 0  # the leftover prefix is really there
        rec_c = self._recommender(small_world, tier_c, wal=wal)
        report = recovery.recover(tier_c, rec_c.observe)
        assert report.checkpoint is None and not report.stale_checkpoint
        assert report.replayed == self.N_TOTAL

        now = stream[-1].timestamp + 60.0
        users = {a.user_id for a in stream[:50]}
        for user in sorted(users)[:8]:
            assert rec_c.recommend_ids(user, n=10, now=now) == (
                rec_a.recommend_ids(user, n=10, now=now)
            ), f"recovered top-N diverged for {user}"

    def test_rebuild_sees_the_checkpointed_prefix_in_log_order(
        self, small_world, small_actions, tmp_path
    ):
        """State outside the store gets one in-order pass over the log:
        ``rebuild`` for what the checkpoint covers, ``apply`` for the rest."""
        stream = small_actions[: self.N_CRASH]
        wal = ActionWAL(tmp_path / "wal", segment_max_records=64)
        recovery = RecoveryManager(
            CheckpointManager(tmp_path / "ckpt", fsync=False), wal
        )
        tier_b = self._tier(tmp_path, "kv-b")
        rec_b = self._recommender(small_world, tier_b, wal=wal)
        rec_b.observe_stream(stream[: self.N_CHECKPOINT])
        recovery.checkpoint(tier_b, incremental=True)
        rec_b.observe_stream(stream[self.N_CHECKPOINT :])
        del rec_b

        seen = []
        report = recovery.recover(
            self._tier(tmp_path, "kv-b"),
            lambda action: seen.append(("apply", action)),
            rebuild=lambda action: seen.append(("rebuild", action)),
        )
        assert report.replayed == self.N_CRASH - self.N_CHECKPOINT
        # (the log keeps milliseconds, so compare in its own encoding)
        assert [action.to_log_line() for _, action in seen] == [
            action.to_log_line() for action in stream
        ]
        assert [kind for kind, _ in seen] == (
            ["rebuild"] * self.N_CHECKPOINT + ["apply"] * report.replayed
        )


def test_durable_work_follows_keys_not_actions(
    small_world, small_actions, tmp_path, virtual_obs
):
    """The write-back mechanism as an exact, speed-independent count: the
    served stack trains 500 actions without touching the durable log, and
    the checkpoint then writes one record per live key — where write-through
    re-read and re-wrote a record for every update (2,386 records and 2,325
    reads for this stream at the parent commit)."""
    obs = virtual_obs
    durable = DurableKVStore(
        tmp_path / "kv", fsync="never", registry=obs.registry
    )
    tier = ReadThroughCache(durable, capacity=4096)
    store = obs.instrument_store(tier)
    wal = ActionWAL(tmp_path / "wal")
    recovery = RecoveryManager(
        CheckpointManager(tmp_path / "ckpt", fsync=False), wal
    )
    recommender = RealtimeRecommender(
        small_world.videos, users=small_world.users, store=store, wal=wal, obs=obs
    )
    written = obs.registry.get("durable_kv_records_written_total")
    recommender.observe_stream(small_actions[:500])
    assert written.value == 0

    info = recovery.checkpoint(store, incremental=True)
    assert info.wal_seq == 500
    assert info.n_entries == len(store) == len(durable) > 0
    assert written.value == len(store)
    assert obs.registry.get("durable_kv_reads_total").value == 0
    durable.close()
