"""Checkpoint tests: atomic snapshots round-trip exactly."""

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import pytest

import repro.kvstore.store as store_module
from repro.errors import CheckpointError
from repro.kvstore import InMemoryKVStore
from repro.reliability import CheckpointManager
from tests.support.kv import contents, put


def _manager(tmp_path, **kwargs):
    kwargs.setdefault("fsync", False)
    return CheckpointManager(tmp_path / "ckpt", **kwargs)


class TestRoundTrip:
    def test_values_and_namespaces_survive(self, tmp_path):
        store = InMemoryKVStore()
        put(store, ("mf:x", "u1"), np.arange(4.0))
        put(store, ("mf:x", "u1"), np.arange(4.0) * 2)
        put(store, ("history", "u2"), [("v1", 1.0), ("v2", 2.0)])
        put(store, "mu", (12.5, 7))

        manager = _manager(tmp_path)
        info = manager.create(store, wal_seq=41)
        assert info.n_entries == 3
        assert info.wal_seq == 41

        restored = InMemoryKVStore()
        assert manager.restore_latest(restored).checkpoint_id == 1
        np.testing.assert_array_equal(
            restored.get(("mf:x", "u1")), np.arange(4.0) * 2
        )
        assert restored.get(("history", "u2")) == [("v1", 1.0), ("v2", 2.0)]
        assert restored.get("mu") == (12.5, 7)
        assert len(restored.snapshot_entries()) == 3

    def test_full_checkpoint_written_before_versions_left_restores(
        self, tmp_path, monkeypatch
    ):
        """``entries.pkl`` files written while ``EntrySnapshot`` still had
        ``version`` / ``expires_at`` fields restore the same keys and values
        (never a partial load)."""

        @dataclass(frozen=True, slots=True)
        class EntrySnapshot:  # the four-field layout those files pickled
            key: Any
            value: Any
            version: int
            expires_at: float | None

        EntrySnapshot.__qualname__ = "EntrySnapshot"
        EntrySnapshot.__module__ = store_module.__name__
        old_entries = [
            EntrySnapshot(("mf:x", "u1"), np.arange(3.0), 7, None),
            EntrySnapshot("mu", (12.5, 7), 2, None),
        ]
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "EntrySnapshot", EntrySnapshot)
            payload = pickle.dumps(old_entries, protocol=pickle.HIGHEST_PROTOCOL)

        manager = _manager(tmp_path)
        info = manager.create(InMemoryKVStore())
        (Path(info.path) / "entries.pkl").write_bytes(payload)
        manifest_path = Path(info.path) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.update(
            n_entries=2, sha256=hashlib.sha256(payload).hexdigest()
        )
        manifest_path.write_text(json.dumps(manifest))

        restored = InMemoryKVStore()
        assert manager.restore(info, restored) == 2
        np.testing.assert_array_equal(
            restored.get(("mf:x", "u1")), np.arange(3.0)
        )
        assert restored.get("mu") == (12.5, 7)
        assert len(restored.snapshot_entries()) == 2


class TestAtomicityAndRetention:
    def test_empty_root_restores_nothing(self, tmp_path):
        manager = _manager(tmp_path)
        assert manager.latest() is None
        assert manager.restore_latest(InMemoryKVStore()) is None

    def test_torn_staging_directory_is_ignored(self, tmp_path):
        manager = _manager(tmp_path)
        store = InMemoryKVStore()
        put(store, "k", 1)
        manager.create(store)
        # Simulate a crash mid-write: staging dir with entries but no
        # manifest, never renamed.
        torn = manager.root / "tmp-00000099"
        torn.mkdir()
        (torn / "entries.pkl").write_bytes(b"garbage")
        assert [info.checkpoint_id for info in manager.list()] == [1]

    def test_checksum_mismatch_refuses_restore(self, tmp_path):
        manager = _manager(tmp_path)
        store = InMemoryKVStore()
        put(store, "k", 1)
        info = manager.create(store)
        entries = Path(info.path) / "entries.pkl"
        entries.write_bytes(entries.read_bytes() + b"x")
        with pytest.raises(CheckpointError, match="checksum"):
            manager.restore(info, InMemoryKVStore())

    def test_unknown_manifest_format_refuses_restore(self, tmp_path):
        manager = _manager(tmp_path)
        store, target = InMemoryKVStore(), InMemoryKVStore()
        put(store, "k", 1)
        info = manager.create(store)
        put(target, "later", 2)
        before = contents(target)
        manifest_path = Path(info.path) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["kind"] == "full"
        manifest["format"] = 99
        manifest_path.write_text(json.dumps(manifest))

        with pytest.raises(CheckpointError, match="format"):
            manager.restore(info, target)
        with pytest.raises(CheckpointError, match="format"):
            manager.restore_latest(target)
        assert contents(target) == before

    def test_segments_manifest_of_an_older_build_is_skipped(self, tmp_path):
        """An older build's ``kind="segments"`` manifest references files of
        a store tier that no longer exists: it is never listed or restored,
        and the next checkpoint takes the following id, not its name."""
        manager = _manager(tmp_path)
        old = manager.root / "ckpt-00000001"
        old.mkdir()
        (old / "manifest.json").write_text(
            json.dumps(
                {
                    "format": 1,
                    "kind": "segments",
                    "checkpoint_id": 1,
                    "wal_seq": 40,
                    "n_entries": 3,
                    "created_at": 0.0,
                    "segments": [{"name": "seg-000001.log", "bytes": 120}],
                    "sha256": "0" * 64,
                    "metadata": {},
                }
            )
        )
        assert manager.list() == []
        assert manager.restore_latest(InMemoryKVStore()) is None

        store = InMemoryKVStore()
        put(store, "k", 1)
        info = manager.create(store, wal_seq=41)
        assert info.checkpoint_id == 2
        assert [i.checkpoint_id for i in manager.list()] == [2]

    def test_restore_replaces_the_store_contents(self, tmp_path):
        manager = _manager(tmp_path)
        store = InMemoryKVStore()
        put(store, "a", 1)
        manager.create(store)
        for target in (store, InMemoryKVStore()):
            put(target, "a", 2)
            put(target, "b", 3)
            assert manager.restore_latest(target) is not None
            assert contents(target) == {"a": 1}

    def test_manifest_records_payload_hash(self, tmp_path):
        manager = _manager(tmp_path)
        store = InMemoryKVStore()
        put(store, "k", "v")
        info = manager.create(store, wal_seq=9)
        manifest = json.loads((Path(info.path) / "manifest.json").read_text())
        assert manifest["wal_seq"] == 9
        assert manifest["n_entries"] == 1
        assert len(manifest["sha256"]) == 64

    def test_retention_prunes_oldest(self, tmp_path):
        manager = _manager(tmp_path, retain=2)
        store = InMemoryKVStore()
        for i in range(4):
            put(store, "k", i)
            manager.create(store)
        ids = [info.checkpoint_id for info in manager.list()]
        assert ids == [3, 4]
        # Latest still restores the newest value.
        restored = InMemoryKVStore()
        manager.restore_latest(restored)
        assert restored.get("k") == 3

    def test_checksum_mismatch_leaves_the_store_untouched(self, tmp_path):
        manager = _manager(tmp_path)
        store = InMemoryKVStore()
        put(store, "k", 1)
        info = manager.create(store)
        entries = Path(info.path) / "entries.pkl"
        entries.write_bytes(entries.read_bytes()[:-1])
        target = InMemoryKVStore()
        put(target, "live", 1)
        put(target, "k", 2)
        with pytest.raises(CheckpointError, match="checksum"):
            manager.restore_latest(target)
        assert contents(target) == {"live": 1, "k": 2}

    def test_retain_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="retain"):
            _manager(tmp_path, retain=0)


class TestManifest:
    def test_metadata_and_wal_seq_survive_a_reopen(self, tmp_path):
        store = InMemoryKVStore()
        put(store, "k", 1)
        _manager(tmp_path).create(
            store,
            wal_seq=12,
            created_at=3.5,
            metadata={"trained_through_day": 2, "note": "boot"},
        )
        (info,) = _manager(tmp_path).list()
        assert info.name == "ckpt-00000001"
        assert info.wal_seq == 12
        assert info.created_at == 3.5
        assert info.n_entries == 1
        assert dict(info.metadata) == {"trained_through_day": 2, "note": "boot"}

    def test_ids_keep_growing_across_reopens_and_pruning(self, tmp_path):
        store = InMemoryKVStore()
        for round_ in range(3):
            manager = _manager(tmp_path, retain=1)
            put(store, "k", round_)
            manager.create(store, wal_seq=round_)
            manager.create(store, wal_seq=round_ + 100)
        infos = _manager(tmp_path).list()
        assert [info.checkpoint_id for info in infos] == [6]
        assert infos[0].wal_seq == 102
        restored = InMemoryKVStore()
        _manager(tmp_path).restore_latest(restored)
        assert restored.get("k") == 2

    @pytest.mark.parametrize("fsync", [True, False])
    def test_each_file_is_fsynced_only_when_asked(
        self, tmp_path, monkeypatch, fsync
    ):
        """``fsync=True`` syncs both files of a checkpoint (entries, then
        manifest) before the rename publishes it; ``fsync=False`` none."""
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        store = InMemoryKVStore()
        put(store, "k", 1)
        _manager(tmp_path, fsync=fsync).create(store)
        assert len(calls) == (2 if fsync else 0)
