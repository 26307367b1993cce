"""Checkpoint tests: atomic snapshots round-trip exactly."""

import json
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core import ModelState
from repro.errors import CheckpointError
from repro.reliability import CheckpointManager
from tests.support.state import plain


def put(state, user, value):
    """Write ``value`` as ``user``'s history."""
    state.histories[user] = value


def contents(state):
    return dict(state.histories)


def _manager(tmp_path, **kwargs):
    kwargs.setdefault("fsync", False)
    return CheckpointManager(tmp_path / "ckpt", **kwargs)


class TestRoundTrip:
    def test_every_value_survives(self, tmp_path):
        state = ModelState(4)
        state.users.put("u1", np.arange(4.0), 0.5)
        state.videos.put("v1", np.arange(4.0) * 2, -0.5)
        state.lists.insert([("v1", "v2", 0.25, 3.0, (1.0, 0.0))], 10, 1.0)
        put(state, "u2", [("v1", 1.0), ("v2", 2.0)])
        state.hot["g"] = {"v1": (1.5, 2.0)}
        state.mu = (12.5, 7)
        manager = _manager(tmp_path)
        info = manager.create(state, wal_seq=41)
        assert info.checkpoint_id == 1
        assert info.wal_seq == 41

        restored = ModelState(4)
        assert manager.restore_latest(restored).checkpoint_id == 1
        assert plain(restored) == plain(state)
        np.testing.assert_array_equal(restored.videos.vector("v1"), np.arange(4.0) * 2)
        assert restored.histories == {"u2": [("v1", 1.0), ("v2", 2.0)]}
        assert restored.mu == (12.5, 7)

    def test_the_payload_is_the_pickled_state(self, tmp_path):
        """Format 4: ``state.pkl`` is one pickled ``ModelState``."""
        state = ModelState()
        put(state, "u1", [("v1", 1.0)])
        info = _manager(tmp_path).create(state)
        payload = (Path(info.path) / "state.pkl").read_bytes()
        loaded = pickle.loads(payload)
        assert type(loaded) is ModelState
        assert plain(loaded) == plain(state)
        manifest = json.loads((Path(info.path) / "manifest.json").read_text())
        assert manifest["format"] == 4


class TestAtomicityAndRetention:
    def test_empty_root_restores_nothing(self, tmp_path):
        manager = _manager(tmp_path)
        assert manager.latest() is None
        assert manager.restore_latest(ModelState()) is None

    def test_torn_staging_directory_is_ignored(self, tmp_path):
        manager = _manager(tmp_path)
        state = ModelState()
        put(state, "k", 1)
        manager.create(state)
        # Simulate a crash mid-write: staging dir with entries but no
        # manifest, never renamed.
        torn = manager.root / "tmp-00000099"
        torn.mkdir()
        (torn / "state.pkl").write_bytes(b"garbage")
        assert [info.checkpoint_id for info in manager.list()] == [1]

    def test_checksum_mismatch_refuses_restore(self, tmp_path):
        manager = _manager(tmp_path)
        state = ModelState()
        put(state, "k", 1)
        info = manager.create(state)
        payload = Path(info.path) / "state.pkl"
        payload.write_bytes(payload.read_bytes() + b"x")
        with pytest.raises(CheckpointError, match="checksum"):
            manager.restore(info, ModelState())

    def test_unknown_manifest_format_refuses_restore(self, tmp_path):
        manager = _manager(tmp_path)
        state, target = ModelState(), ModelState()
        put(state, "k", 1)
        info = manager.create(state)
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
        assert manager.restore_latest(ModelState()) is None

        state = ModelState()
        put(state, "k", 1)
        info = manager.create(state, wal_seq=41)
        assert info.checkpoint_id == 2
        assert [i.checkpoint_id for i in manager.list()] == [2]

    def test_restore_replaces_the_store_contents(self, tmp_path):
        manager = _manager(tmp_path)
        state = ModelState()
        put(state, "a", 1)
        manager.create(state)
        for target in (state, ModelState()):
            put(target, "a", 2)
            put(target, "b", 3)
            assert manager.restore_latest(target) is not None
            assert contents(target) == {"a": 1}

    def test_manifest_records_payload_hash(self, tmp_path):
        manager = _manager(tmp_path)
        state = ModelState()
        put(state, "k", "v")
        info = manager.create(state, wal_seq=9)
        manifest = json.loads((Path(info.path) / "manifest.json").read_text())
        assert manifest["wal_seq"] == 9
        assert len(manifest["sha256"]) == 64

    def test_retention_prunes_oldest(self, tmp_path):
        manager = _manager(tmp_path, retain=2)
        state = ModelState()
        for i in range(4):
            put(state, "k", i)
            manager.create(state)
        ids = [info.checkpoint_id for info in manager.list()]
        assert ids == [3, 4]
        # Latest still restores the newest value.
        restored = ModelState()
        manager.restore_latest(restored)
        assert contents(restored) == {"k": 3}

    def test_checksum_mismatch_leaves_the_store_untouched(self, tmp_path):
        manager = _manager(tmp_path)
        state = ModelState()
        put(state, "k", 1)
        info = manager.create(state)
        payload = Path(info.path) / "state.pkl"
        payload.write_bytes(payload.read_bytes()[:-1])
        target = ModelState()
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
        state = ModelState()
        put(state, "k", 1)
        _manager(tmp_path).create(
            state,
            wal_seq=12,
            created_at=3.5,
            metadata={"trained_through_day": 2, "note": "boot"},
        )
        (info,) = _manager(tmp_path).list()
        assert info.name == "ckpt-00000001"
        assert info.wal_seq == 12
        assert info.created_at == 3.5
        assert dict(info.metadata) == {"trained_through_day": 2, "note": "boot"}

    def test_ids_keep_growing_across_reopens_and_pruning(self, tmp_path):
        state = ModelState()
        for round_ in range(3):
            manager = _manager(tmp_path, retain=1)
            put(state, "k", round_)
            manager.create(state, wal_seq=round_)
            manager.create(state, wal_seq=round_ + 100)
        infos = _manager(tmp_path).list()
        assert [info.checkpoint_id for info in infos] == [6]
        assert infos[0].wal_seq == 102
        restored = ModelState()
        _manager(tmp_path).restore_latest(restored)
        assert contents(restored) == {"k": 2}

    @pytest.mark.parametrize("fsync", [True, False])
    def test_each_file_is_fsynced_only_when_asked(
        self, tmp_path, monkeypatch, fsync
    ):
        """``fsync=True`` syncs both files of a checkpoint (state, then
        manifest) before the rename publishes it; ``fsync=False`` none."""
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        state = ModelState()
        put(state, "k", 1)
        _manager(tmp_path, fsync=fsync).create(state)
        assert len(calls) == (2 if fsync else 0)
