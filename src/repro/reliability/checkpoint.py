"""Atomic on-disk checkpoints of the model state.

The paper's production system survives worker crashes because Storm replays
unacked tuples and the model state lives in external storage (§5.1-5.2).
This module provides the durable half of that story for this repo's
in-process state: a :class:`CheckpointManager` pickles the whole
:class:`~repro.core.state.ModelState` — MF vectors, biases, the ``mu``
accumulator, user histories, similar-video lists, hot tables — into a
versioned directory and restores it in place.

On-disk layout (all under the manager's root directory)::

    ckpt-00000001/
        state.pkl       # the pickled ModelState
        manifest.json   # format, kind, id, wal_seq, sha256 of state.pkl
    ckpt-00000002/
    ...

A checkpoint is *atomic by construction*: the state is written into a
``tmp-*`` staging directory, the manifest (with a checksum over the
payload) is written last, and only then is the directory renamed to its
final ``ckpt-*`` name.  A crash mid-write leaves a ``tmp-*`` directory that
restore ignores; a manifest whose ``format`` this build does not know, or
whose checksum does not match its payload, is rejected with
:class:`~repro.errors.CheckpointError`.

Older builds wrote checkpoints of a key-value store: ``kind="segments"``
manifests that referenced the files of a log-structured store tier, and
formats 1-3, lists of store entries.  :meth:`CheckpointManager.list` skips
them all, so recovery from such a data directory replays the whole
write-ahead log instead.

The state is serialised with :mod:`pickle` — checkpoints are trusted local
state written and read by the same process family, and the values (numpy
arrays, tuples, dicts) have no stable text encoding.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from ..core.state import ModelState
from ..errors import CheckpointError

_PREFIX = "ckpt-"
_TMP_PREFIX = "tmp-"
_STATE_FILE = "state.pkl"
_MANIFEST_FILE = "manifest.json"
_FORMAT_VERSION = 4
#: Formats older builds wrote that this one skips: lists of key-value
#: store entries (1 lacks the hot lists, 2 holds a ``simtable`` entry per
#: video, 3 one entry holding every similar-video list).
_SKIPPED_FORMATS = (1, 2, 3)
_KIND_FULL = "full"


@dataclass(frozen=True, slots=True)
class CheckpointInfo:
    """Manifest of one completed checkpoint.

    ``metadata`` carries caller-supplied, JSON-serialisable annotations —
    e.g. ``{"trained_through_day": 2}`` — so operators can see at a glance
    what a snapshot holds.  It travels in the manifest only; restore
    semantics never depend on it.
    """

    checkpoint_id: int
    path: str
    wal_seq: int
    created_at: float
    metadata: Mapping[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{_PREFIX}{self.checkpoint_id:08d}"


class CheckpointManager:
    """Writes, lists, restores, and prunes checkpoints under one root.

    ``retain`` bounds how many completed checkpoints are kept; older ones
    are pruned after each successful :meth:`create`.  ``fsync=False`` skips
    the per-file fsync (faster, used by tests); the rename-after-manifest
    protocol still guarantees no torn checkpoint is ever restored.
    """

    def __init__(
        self, root: str | os.PathLike, retain: int = 3, fsync: bool = True
    ) -> None:
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.retain = retain
        self.fsync = fsync

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def create(
        self,
        state: ModelState,
        wal_seq: int = 0,
        created_at: float = 0.0,
        metadata: Mapping[str, object] | None = None,
    ) -> CheckpointInfo:
        """Pickle ``state`` as the next checkpoint; return its manifest.

        ``wal_seq`` records the last WAL sequence number already reflected
        in the snapshot, so recovery knows where replay must resume.
        ``metadata`` (JSON-serialisable mapping) is stored verbatim in the
        manifest and surfaced on :class:`CheckpointInfo`.
        """
        checkpoint_id = self._next_id()
        metadata = dict(metadata or {})
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

        staging = self.root / f"{_TMP_PREFIX}{checkpoint_id:08d}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            self._write_file(staging / _STATE_FILE, payload)
            manifest = {
                "format": _FORMAT_VERSION,
                "kind": _KIND_FULL,
                "checkpoint_id": checkpoint_id,
                "wal_seq": wal_seq,
                "created_at": created_at,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "metadata": metadata,
            }
            self._write_file(
                staging / _MANIFEST_FILE,
                json.dumps(manifest, indent=2).encode("utf-8"),
            )
            final = self.root / f"{_PREFIX}{checkpoint_id:08d}"
            os.rename(staging, final)
        except OSError as exc:
            shutil.rmtree(staging, ignore_errors=True)
            raise CheckpointError(f"failed to write checkpoint: {exc}") from exc
        self._prune()
        return CheckpointInfo(
            checkpoint_id=checkpoint_id,
            path=str(final),
            wal_seq=wal_seq,
            created_at=created_at,
            metadata=metadata,
        )

    def _write_file(self, path: Path, data: bytes) -> None:
        with open(path, "wb") as handle:
            handle.write(data)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # Listing
    # ------------------------------------------------------------------

    def list(self) -> list[CheckpointInfo]:
        """Completed full checkpoints, oldest first.  Torn ``tmp-*``
        directories, directories without a manifest and what older builds
        wrote (``kind="segments"`` manifests, formats 1-3) are skipped
        silently."""
        infos: list[CheckpointInfo] = []
        for path in sorted(self.root.iterdir()):
            if not path.is_dir() or not path.name.startswith(_PREFIX):
                continue
            manifest_path = path / _MANIFEST_FILE
            if not manifest_path.exists():
                continue
            try:
                manifest = json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if (
                manifest.get("kind", _KIND_FULL) != _KIND_FULL
                or manifest.get("format") in _SKIPPED_FORMATS
            ):
                continue
            infos.append(
                CheckpointInfo(
                    checkpoint_id=int(manifest["checkpoint_id"]),
                    path=str(path),
                    wal_seq=int(manifest["wal_seq"]),
                    created_at=float(manifest["created_at"]),
                    metadata=dict(manifest.get("metadata", {})),
                )
            )
        infos.sort(key=lambda info: info.checkpoint_id)
        return infos

    def latest(self) -> CheckpointInfo | None:
        """The most recent completed checkpoint, or ``None``."""
        infos = self.list()
        return infos[-1] if infos else None

    def _next_id(self) -> int:
        # Every ``ckpt-*`` name counts, restorable or not, so a new
        # checkpoint never collides with a directory an older build left.
        ids = [
            int(path.name[len(_PREFIX) :])
            for path in self.root.glob(f"{_PREFIX}*")
            if path.name[len(_PREFIX) :].isdigit()
        ]
        return max(ids, default=0) + 1

    # ------------------------------------------------------------------
    # Restoring
    # ------------------------------------------------------------------

    def restore(self, info: CheckpointInfo, state: ModelState) -> None:
        """Replace ``state``'s values with checkpoint ``info``'s, in place.

        Verifies the manifest's format number and the payload checksum
        before touching the state, so an unknown or corrupt checkpoint
        never half-loads.
        """
        path = Path(info.path)
        manifest_path = path / _MANIFEST_FILE
        try:
            manifest = json.loads(manifest_path.read_text())
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint {info.name} unreadable: {exc}"
            ) from exc
        if manifest.get("format") != _FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {info.name} has unknown format "
                f"{manifest.get('format')!r} (this build reads {_FORMAT_VERSION})"
            )

        try:
            payload = (path / _STATE_FILE).read_bytes()
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint {info.name} unreadable: {exc}"
            ) from exc
        digest = hashlib.sha256(payload).hexdigest()
        if digest != manifest["sha256"]:
            raise CheckpointError(
                f"checkpoint {info.name} corrupt: checksum mismatch"
            )
        state.restore(pickle.loads(payload))

    def restore_latest(self, state: ModelState) -> CheckpointInfo | None:
        """Restore the newest checkpoint into ``state``.

        Returns its manifest, or ``None`` when no checkpoint exists (the
        caller then recovers from the WAL alone).
        """
        info = self.latest()
        if info is None:
            return None
        self.restore(info, state)
        return info

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------

    def _prune(self) -> None:
        infos = self.list()
        for info in infos[: max(0, len(infos) - self.retain)]:
            shutil.rmtree(info.path, ignore_errors=True)
