"""Log-structured durable :class:`KVStore` backend.

The paper's storage tier (§5.1) is a *remote* memory store that outlives any
one worker; this repo's stores so far were pure in-memory, so dataset size
was RAM-bound and a crash meant losing everything since the last full
checkpoint.  :class:`DurableKVStore` is the persistent tier under the cache
hierarchy: every write is appended to a checksummed segment file on disk,
an in-memory index maps each key to its newest record, and reads seek
straight to the record — the classic bitcask layout.  It speaks exactly
the :class:`~repro.kvstore.store.KVStore` contract (no versions, no
expiry: a record is a key, a value and a tombstone flag).  Compose it under a
:class:`~repro.kvstore.cache.ReadThroughCache` for the hot-set-in-memory /
full-state-on-disk split: that cache is write-back, so this log receives
one record per dirty key per flush (a checkpoint, or an eviction), not one
per write, and holds the full state as of the last flush.

On-disk layout (all files under one root directory)::

    seg-000000000001.log     # sealed (immutable, fsynced at rotation)
    seg-000000000002.log     # sealed
    seg-000000000003.log     # active (append-only)
    compact-tmp-*.log        # partial compaction — discarded on open

Record format (binary, integers low byte first)::

    u32 crc32    over everything that follows (length, flags, payload)
    u32 length   payload byte count
    u8  flags    bit 0: tombstone
    payload      pickle of (key, 0, None, value); the two constant slots
                 are a retired version and expires_at, ignored on read,
                 kept so data directories written before still open

Durability semantics, by construction:

* **Torn tails truncate, never crash.**  A crash mid-append leaves a
  partial record at the end of the *active* (newest) segment.  On open the
  scan detects it via the checksum (or a short read) and truncates the file
  at the last good record, counting the anomaly in the metrics registry
  (``durable_kv_torn_tail_truncations_total``).  Because every record
  before the tear re-verifies its checksum, a surviving read can only ever
  return exactly what was written — wrong values are structurally
  impossible.
* **Sealed segments are immutable.**  They are fsynced (file *and*
  directory) at rotation, so a checksum failure in a sealed segment is
  real corruption, not a crash artifact — it raises
  :class:`~repro.errors.CorruptSegmentError` instead of being truncated.
* **Acked writes survive ``SIGKILL``.**  With ``fsync="always"`` a
  :meth:`put` does not return before its record is on disk; the
  crash-injection suite kills the process mid-write and proves no acked
  write is ever lost.
* **Compaction is atomic.**  Live records are rewritten into a
  ``compact-tmp-*`` file which is fsynced and then atomically renamed to a
  segment id *higher* than every source segment; a crash at any point
  either leaves the tmp file (discarded on open) or leaves stale source
  segments whose records are overridden by the compacted segment in scan
  order.  Tombstones are retained through compaction so a crash between
  the rename and the source unlinks can never resurrect a deleted key.

Fsync policy (``fsync=``):

* ``"always"`` — fsync after every write batch (a ``put`` is a batch of
  one; ``mput`` pays one fsync for the whole batch).  Survives power loss.
* ``"interval"`` — fsync when more than ``fsync_interval_s`` has passed
  since the last one.  Survives process crashes; bounds power-loss damage.
* ``"never"`` — flush to the OS only.  Survives process crashes.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator

from ..clock import Clock, SystemClock
from ..errors import CorruptSegmentError, DurableStoreError
from .store import EntrySnapshot, Key, KVStore

__all__ = [
    "DurableKVStore",
    "CompactionReport",
    "FSYNC_POLICIES",
    "unwrap_durable",
    "flush_caches",
    "drop_caches",
]

_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".log"
_COMPACT_TMP_PREFIX = "compact-tmp-"

_CRC = struct.Struct("<I")
_LENFLAGS = struct.Struct("<IB")
_HEADER_SIZE = _CRC.size + _LENFLAGS.size  # 9 bytes

_FLAG_TOMBSTONE = 0x01

FSYNC_POLICIES = ("always", "interval", "never")

_MISSING = object()


def _segment_name(segment_id: int) -> str:
    return f"{_SEGMENT_PREFIX}{segment_id:012d}{_SEGMENT_SUFFIX}"


def _segment_id(path_or_name: Path | str) -> int:
    name = path_or_name.name if isinstance(path_or_name, Path) else path_or_name
    return int(name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])


def _is_segment_name(name: str) -> bool:
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return False
    stem = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return stem.isdigit()


def _encode_record(key: Key, value: Any, tombstone: bool = False) -> bytes:
    payload = pickle.dumps(
        (key, 0, None, None if tombstone else value),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    meta = _LENFLAGS.pack(len(payload), _FLAG_TOMBSTONE if tombstone else 0)
    crc = zlib.crc32(meta + payload) & 0xFFFFFFFF
    return _CRC.pack(crc) + meta + payload


@dataclass(slots=True)
class _IndexEntry:
    """Where a key's newest live record sits on disk."""

    segment_id: int
    offset: int
    length: int


@dataclass(frozen=True, slots=True)
class CompactionReport:
    """What one :meth:`DurableKVStore.compact` call did."""

    segments_merged: int
    bytes_before: int
    bytes_after: int
    live_records: int
    tombstones_kept: int

    @property
    def bytes_reclaimed(self) -> int:
        return self.bytes_before - self.bytes_after


class _Scan:
    """One decoded record during a segment scan."""

    __slots__ = ("offset", "length", "tombstone", "key")

    def __init__(self, offset, length, tombstone, key):
        self.offset = offset
        self.length = length
        self.tombstone = tombstone
        self.key = key


def _scan_segment(data: bytes) -> Iterator[_Scan]:
    """Yield one :class:`_Scan` per record until the data ends or fails.

    On failure, raises :class:`_ScanFailure` carrying the byte offset of
    the bad record and a reason — the caller decides between torn-tail
    truncation (active segment) and :class:`CorruptSegmentError` (sealed).
    """
    pos = 0
    size = len(data)
    while pos < size:
        if pos + _HEADER_SIZE > size:
            raise _ScanFailure(pos, "short header")
        (crc,) = _CRC.unpack_from(data, pos)
        length, flags = _LENFLAGS.unpack_from(data, pos + _CRC.size)
        end = pos + _HEADER_SIZE + length
        if end > size:
            raise _ScanFailure(pos, "short payload")
        if zlib.crc32(data[pos + _CRC.size : end]) & 0xFFFFFFFF != crc:
            raise _ScanFailure(pos, "checksum mismatch")
        try:
            key, _version, _expires_at, _value = pickle.loads(
                data[pos + _HEADER_SIZE : end]
            )
        except Exception:
            raise _ScanFailure(pos, "undecodable payload") from None
        yield _Scan(pos, end - pos, bool(flags & _FLAG_TOMBSTONE), key)
        pos = end


class _ScanFailure(Exception):
    """Internal: a segment scan hit a bad record at ``offset``."""

    def __init__(self, offset: int, reason: str) -> None:
        super().__init__(reason)
        self.offset = offset
        self.reason = reason


class _Metrics:
    """The store's instruments, or no-ops when no registry is wired."""

    def __init__(self, registry) -> None:
        if registry is None:
            self.enabled = False
            return
        self.enabled = True
        self.torn_tails = registry.counter(
            "durable_kv_torn_tail_truncations_total",
            "Torn active-segment tails truncated on open",
        )
        self.truncated_bytes = registry.counter(
            "durable_kv_truncated_bytes_total",
            "Bytes dropped by torn-tail truncation",
        )
        self.partial_compactions = registry.counter(
            "durable_kv_partial_compactions_discarded_total",
            "compact-tmp files from crashed compactions discarded on open",
        )
        self.records_written = registry.counter(
            "durable_kv_records_written_total",
            "Records appended (puts, deletes, restores, compaction rewrites)",
        )
        self.reads = registry.counter(
            "durable_kv_reads_total", "Record reads served from disk"
        )
        self.fsyncs = registry.counter(
            "durable_kv_fsyncs_total", "fsync calls on segment files"
        )
        self.compactions = registry.counter(
            "durable_kv_compactions_total", "Completed compactions"
        )
        self.reclaimed = registry.counter(
            "durable_kv_compaction_reclaimed_bytes_total",
            "Bytes reclaimed by compaction",
        )
        self.segments = registry.gauge(
            "durable_kv_segments", "Segment files currently on disk"
        )
        self.live_keys = registry.gauge(
            "durable_kv_live_keys", "Keys with a live record"
        )
        self.dead_bytes = registry.gauge(
            "durable_kv_dead_bytes", "Bytes owned by superseded/deleted records"
        )

    def __getattr__(self, name: str):  # registry is None: every op no-ops
        return _NoopInstrument()


class _NoopInstrument:
    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass


class DurableKVStore(KVStore):
    """Append-only, checksummed, compacting, disk-backed key-value store.

    Thread-safe (one :class:`threading.RLock` over index and log).  Values
    are pickled per record, so reads return a *fresh* object every time —
    callers that mutate values in place must :meth:`put` them back, same
    as every other store in this package.

    ``registry`` (a :class:`~repro.obs.MetricsRegistry`) makes every
    anomaly — torn tails, discarded partial compactions — and every
    compaction observable; pass ``obs.registry`` in production wiring.
    ``clock`` paces the ``"interval"`` fsync policy and nothing else.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        segment_max_bytes: int = 4 * 1024 * 1024,
        fsync: str = "interval",
        fsync_interval_s: float = 0.05,
        compact_min_bytes: int = 1024 * 1024,
        compact_min_dead_ratio: float = 0.5,
        auto_compact: bool = True,
        clock: Clock | None = None,
        registry=None,
    ) -> None:
        if segment_max_bytes < 64:
            raise ValueError(
                f"segment_max_bytes must be >= 64, got {segment_max_bytes}"
            )
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if fsync_interval_s < 0:
            raise ValueError(
                f"fsync_interval_s must be >= 0, got {fsync_interval_s}"
            )
        if not 0.0 < compact_min_dead_ratio <= 1.0:
            raise ValueError(
                "compact_min_dead_ratio must be in (0, 1], "
                f"got {compact_min_dead_ratio}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        self.fsync_policy = fsync
        self.fsync_interval_s = fsync_interval_s
        self.compact_min_bytes = compact_min_bytes
        self.compact_min_dead_ratio = compact_min_dead_ratio
        self.auto_compact = auto_compact
        self._clock = clock or SystemClock()
        self._metrics = _Metrics(registry)
        self._lock = threading.RLock()

        self._index: dict[Key, _IndexEntry] = {}
        #: keys whose newest record is a tombstone still on disk — carried
        #: through compaction so stale segments can never resurrect them.
        self._tombstones: set[Key] = set()
        self._segment_bytes: dict[int, int] = {}
        self._dead_bytes = 0
        self._active_id: int | None = None
        self._active_handle: IO[bytes] | None = None
        self._read_handles: dict[int, IO[bytes]] = {}
        self._last_fsync = self._clock.now()
        self._closed = False
        self._load()

    # ------------------------------------------------------------------
    # Opening: discard partial compactions, scan segments, rebuild index
    # ------------------------------------------------------------------

    def _segment_paths(self) -> list[Path]:
        return sorted(
            (
                path
                for path in self.root.iterdir()
                if path.is_file() and _is_segment_name(path.name)
            ),
            key=_segment_id,
        )

    def _load(self) -> None:
        # A crash mid-compaction leaves a tmp file: the atomic-rename
        # protocol means it was never part of the store — roll it back.
        for stray in self.root.glob(f"{_COMPACT_TMP_PREFIX}*"):
            stray.unlink()
            self._metrics.partial_compactions.inc()

        self._index.clear()
        self._tombstones.clear()
        self._segment_bytes.clear()
        self._dead_bytes = 0
        paths = self._segment_paths()
        for position, path in enumerate(paths):
            newest = position == len(paths) - 1
            self._scan_into_index(path, newest=newest)
        self._update_gauges()

    def _scan_into_index(self, path: Path, newest: bool) -> None:
        segment_id = _segment_id(path)
        data = path.read_bytes()
        good_end = 0
        try:
            for record in _scan_segment(data):
                self._apply_scan(segment_id, record)
                good_end = record.offset + record.length
        except _ScanFailure as failure:
            if not newest:
                raise CorruptSegmentError(
                    path.name, failure.offset, failure.reason
                ) from None
            # Torn tail of the active segment: truncate at the last good
            # record and count the anomaly.  Everything before re-verified
            # its checksum, so no wrong value can survive this.
            dropped = len(data) - good_end
            with open(path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
            self._metrics.torn_tails.inc()
            self._metrics.truncated_bytes.inc(dropped)
        self._segment_bytes[segment_id] = good_end if newest else len(data)

    def _apply_scan(self, segment_id: int, record: _Scan) -> None:
        previous = self._index.pop(record.key, None)
        if previous is not None:
            self._dead_bytes += previous.length
        if record.tombstone:
            self._tombstones.add(record.key)
            return
        self._tombstones.discard(record.key)
        self._index[record.key] = _IndexEntry(
            segment_id, record.offset, record.length
        )

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------

    def _fsync_dir(self) -> None:
        fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _seal_active(self) -> None:
        """Fsync and close the active segment; its file becomes immutable."""
        if self._active_handle is None:
            return
        self._active_handle.flush()
        os.fsync(self._active_handle.fileno())
        self._metrics.fsyncs.inc()
        self._active_handle.close()
        self._active_handle = None
        self._active_id = None
        self._fsync_dir()

    def _ensure_active(self, incoming: int) -> int:
        """Return the active segment id, rotating/compacting as needed."""
        if self._active_handle is not None:
            if (
                self._segment_bytes[self._active_id] + incoming
                > self.segment_max_bytes
                and self._segment_bytes[self._active_id] > 0
            ):
                self._seal_active()
                if self.auto_compact and self._should_compact():
                    self._compact_locked()
        if self._active_handle is None:
            next_id = max(self._segment_bytes, default=0) + 1
            path = self.root / _segment_name(next_id)
            self._active_handle = open(path, "ab")
            self._active_id = next_id
            self._segment_bytes.setdefault(next_id, 0)
            self._fsync_dir()
            self._update_gauges()
        return self._active_id

    def _append(self, blob: bytes) -> tuple[int, int]:
        """Write one encoded record; return ``(segment_id, offset)``.

        The caller batches :meth:`_sync` separately so ``mput`` pays one
        fsync for the whole batch.
        """
        segment_id = self._ensure_active(len(blob))
        offset = self._segment_bytes[segment_id]
        self._active_handle.write(blob)
        self._segment_bytes[segment_id] = offset + len(blob)
        self._metrics.records_written.inc()
        return segment_id, offset

    def _sync(self) -> None:
        """Flush the active segment per the configured fsync policy."""
        if self._active_handle is None:
            return
        self._active_handle.flush()
        if self.fsync_policy == "always":
            os.fsync(self._active_handle.fileno())
            self._metrics.fsyncs.inc()
        elif self.fsync_policy == "interval":
            now = self._clock.now()
            if now - self._last_fsync >= self.fsync_interval_s:
                os.fsync(self._active_handle.fileno())
                self._metrics.fsyncs.inc()
                self._last_fsync = now

    def sync(self) -> None:
        """Force everything buffered onto disk, regardless of policy."""
        with self._lock:
            if self._active_handle is not None:
                self._active_handle.flush()
                os.fsync(self._active_handle.fileno())
                self._metrics.fsyncs.inc()
                self._last_fsync = self._clock.now()

    def _write_entry(self, key: Key, value: Any) -> None:
        """Append a live record and move the index to it.  Lock held."""
        blob = _encode_record(key, value)
        previous = self._index.get(key)
        if previous is not None:
            self._dead_bytes += previous.length
        segment_id, offset = self._append(blob)
        self._index[key] = _IndexEntry(segment_id, offset, len(blob))
        self._tombstones.discard(key)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def _read_handle(self, segment_id: int) -> IO[bytes]:
        handle = self._read_handles.get(segment_id)
        if handle is None:
            handle = open(self.root / _segment_name(segment_id), "rb")
            self._read_handles[segment_id] = handle
        return handle

    def _read_value(self, key: Key, entry: _IndexEntry) -> Any:
        """Seek to a record, re-verify its checksum, return its value."""
        if entry.segment_id == self._active_id and self._active_handle:
            self._active_handle.flush()
        handle = self._read_handle(entry.segment_id)
        handle.seek(entry.offset)
        data = handle.read(entry.length)
        segment = _segment_name(entry.segment_id)
        if len(data) != entry.length:
            raise CorruptSegmentError(segment, entry.offset, "short read")
        (crc,) = _CRC.unpack_from(data, 0)
        if zlib.crc32(data[_CRC.size :]) & 0xFFFFFFFF != crc:
            raise CorruptSegmentError(
                segment, entry.offset, "checksum mismatch"
            )
        try:
            record_key, _, _, value = pickle.loads(data[_HEADER_SIZE:])
        except Exception:
            raise CorruptSegmentError(
                segment, entry.offset, "undecodable payload"
            ) from None
        if record_key != key:
            raise CorruptSegmentError(
                segment, entry.offset, f"index points at record for {record_key!r}"
            )
        self._metrics.reads.inc()
        return value

    # ------------------------------------------------------------------
    # KVStore API
    # ------------------------------------------------------------------

    def _value(self, key: Key, default: Any) -> Any:
        """``key``'s value read from disk, or ``default``.  Lock held."""
        entry = self._index.get(key)
        return default if entry is None else self._read_value(key, entry)

    def get(self, key: Key, default: Any = None) -> Any:
        with self._lock:
            return self._value(key, default)

    def put(self, key: Key, value: Any) -> None:
        with self._lock:
            self._write_entry(key, value)
            self._sync()

    def delete(self, key: Key) -> bool:
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                return False
            self._append(_encode_record(key, None, tombstone=True))
            self._sync()
            del self._index[key]
            self._dead_bytes += entry.length
            self._tombstones.add(key)
            return True

    def update(self, key: Key, fn: Callable[[Any], Any], default: Any = None) -> Any:
        with self._lock:
            new_value = fn(self._value(key, default))
            self._write_entry(key, new_value)
            self._sync()
            return new_value

    def mget(self, keys: Iterable[Key], default: Any = None) -> list[Any]:
        """Batch get under one lock acquisition."""
        with self._lock:
            return [self._value(key, default) for key in keys]

    def mput(self, items: Iterable[tuple[Key, Any]]) -> None:
        """Batch put: one lock, one group-commit fsync for the batch."""
        with self._lock:
            for key, value in items:
                self._write_entry(key, value)
            self._sync()

    def __contains__(self, key: Key) -> bool:
        with self._lock:
            return key in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def keys(self) -> Iterator[Key]:
        with self._lock:
            return iter(list(self._index))

    def clear(self) -> None:
        """Remove every entry *and* every segment file (fresh store)."""
        with self._lock:
            self._close_handles()
            for path in self._segment_paths():
                path.unlink()
            self._fsync_dir()
            self._index.clear()
            self._tombstones.clear()
            self._segment_bytes.clear()
            self._dead_bytes = 0
            self._update_gauges()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def snapshot_entries(self) -> list[EntrySnapshot]:
        """One locked pass (reads every live value from disk)."""
        with self._lock:
            return [
                EntrySnapshot(key, self._read_value(key, entry))
                for key, entry in self._index.items()
            ]

    def restore_entries(self, entries: Iterable[EntrySnapshot]) -> int:
        """One lock, one group-commit fsync for the whole restore."""
        count = 0
        with self._lock:
            for entry in entries:
                self._write_entry(entry.key, entry.value)
                count += 1
            self._sync()
        return count

    # ------------------------------------------------------------------
    # Segments: sealing, incremental-checkpoint handshake
    # ------------------------------------------------------------------

    def seal_active(self) -> None:
        """Seal the active segment so the on-disk set is fully immutable.

        Incremental checkpoints call this first: a checkpoint references
        only sealed (fsynced, never-again-written) segment files.
        """
        with self._lock:
            self._seal_active()
            self._update_gauges()

    def sealed_segments(self) -> list[tuple[str, int]]:
        """``(name, bytes)`` for every sealed segment, oldest first.

        Only meaningful right after :meth:`seal_active`; an active segment
        is excluded.
        """
        with self._lock:
            return [
                (_segment_name(segment_id), size)
                for segment_id, size in sorted(self._segment_bytes.items())
                if segment_id != self._active_id
            ]

    def restore_to_segments(self, names: Iterable[str]) -> int:
        """Roll the store back to exactly the named segment set.

        Segments *not* named (writes after the referencing checkpoint,
        possibly including a partially applied action) are deleted;
        the index is rebuilt by rescanning what remains.  Raises
        :class:`~repro.errors.DurableStoreError` if a named segment is
        missing — e.g. compaction ran after the checkpoint was taken —
        in which case the store is left untouched and the caller falls
        back to a full WAL replay.  Returns the number of live keys.
        """
        wanted = set(names)
        for name in wanted:
            if not _is_segment_name(name):
                raise DurableStoreError(f"not a segment name: {name!r}")
        with self._lock:
            on_disk = {path.name: path for path in self._segment_paths()}
            missing = sorted(wanted - set(on_disk))
            if missing:
                raise DurableStoreError(
                    f"checkpointed segments missing from {self.root}: {missing}"
                )
            self._close_handles()
            for name, path in sorted(on_disk.items()):
                if name not in wanted:
                    path.unlink()
            self._fsync_dir()
            self._load()
            return len(self._index)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def _should_compact(self) -> bool:
        total = sum(self._segment_bytes.values())
        return (
            total >= self.compact_min_bytes
            and self._dead_bytes / total >= self.compact_min_dead_ratio
        )

    def compact(self) -> CompactionReport:
        """Rewrite live records into one fresh segment; drop the garbage.

        Safe to call from any thread at any time (it runs under the store
        lock); also triggered automatically at segment rotation when the
        dead-byte ratio crosses ``compact_min_dead_ratio``.  Note that
        compaction deletes the segment files earlier incremental
        checkpoints reference — take a fresh checkpoint after compacting
        (the :class:`~repro.reliability.replay.RecoveryManager` recovery
        path falls back to a full WAL replay if it ever meets a stale
        one).
        """
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> CompactionReport:
        self._seal_active()
        source_ids = sorted(self._segment_bytes)
        bytes_before = sum(self._segment_bytes.values())
        if not source_ids:
            return CompactionReport(0, 0, 0, 0, len(self._tombstones))

        new_id = source_ids[-1] + 1
        tmp = self.root / f"{_COMPACT_TMP_PREFIX}{new_id:012d}{_SEGMENT_SUFFIX}"
        new_index: dict[Key, _IndexEntry] = {}
        offset = 0
        with open(tmp, "wb") as out:
            for key, entry in self._index.items():
                value = self._read_value(key, entry)
                blob = _encode_record(key, value)
                out.write(blob)
                new_index[key] = _IndexEntry(new_id, offset, len(blob))
                offset += len(blob)
            # Tombstones survive compaction: if a crash strands a stale
            # source segment next to the compacted one, the tombstone in
            # the (higher-id) compacted segment still wins the scan and
            # the deleted key stays deleted.
            for key in self._tombstones:
                blob = _encode_record(key, None, tombstone=True)
                out.write(blob)
                offset += len(blob)
            out.flush()
            os.fsync(out.fileno())
            self._metrics.fsyncs.inc()

        os.rename(tmp, self.root / _segment_name(new_id))
        self._fsync_dir()
        self._close_handles()
        for segment_id in source_ids:
            (self.root / _segment_name(segment_id)).unlink()
        self._fsync_dir()

        self._index = new_index
        self._segment_bytes = {new_id: offset}
        self._dead_bytes = 0
        self._metrics.records_written.inc(len(new_index) + len(self._tombstones))
        self._metrics.compactions.inc()
        self._metrics.reclaimed.inc(max(0, bytes_before - offset))
        self._update_gauges()
        return CompactionReport(
            segments_merged=len(source_ids),
            bytes_before=bytes_before,
            bytes_after=offset,
            live_records=len(new_index),
            tombstones_kept=len(self._tombstones),
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Plain-data view of the log: segments, bytes, dead ratio."""
        with self._lock:
            total = sum(self._segment_bytes.values())
            return {
                "segments": len(self._segment_bytes),
                "live_keys": len(self._index),
                "tombstones": len(self._tombstones),
                "total_bytes": total,
                "dead_bytes": self._dead_bytes,
                "dead_ratio": (self._dead_bytes / total) if total else 0.0,
            }

    def _update_gauges(self) -> None:
        if not self._metrics.enabled:
            return
        self._metrics.segments.set(len(self._segment_bytes))
        self._metrics.live_keys.set(len(self._index))
        self._metrics.dead_bytes.set(self._dead_bytes)

    def _close_handles(self) -> None:
        for handle in self._read_handles.values():
            handle.close()
        self._read_handles.clear()
        if self._active_handle is not None:
            self._active_handle.flush()
            self._active_handle.close()
            self._active_handle = None
            self._active_id = None

    def close(self) -> None:
        """Flush, fsync, and release every file handle."""
        with self._lock:
            if self._closed:
                return
            if self._active_handle is not None:
                self._active_handle.flush()
                os.fsync(self._active_handle.fileno())
                self._metrics.fsyncs.inc()
            self._close_handles()
            self._closed = True

    def __enter__(self) -> "DurableKVStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Tier helpers: find the durable layer / flush or drop caches above it
# ----------------------------------------------------------------------

_WRAPPER_ATTRS = ("inner", "_backing")


def _layers(store: Any) -> Iterator[Any]:
    """Each layer of a wrapper chain (cache, instrumentation, fault
    injection), outermost first."""
    seen = set()
    while store is not None and id(store) not in seen:
        seen.add(id(store))
        yield store
        inners = (getattr(store, attr, None) for attr in _WRAPPER_ATTRS)
        store = next((inner for inner in inners if inner is not None), None)


def unwrap_durable(store: Any) -> DurableKVStore | None:
    """The :class:`DurableKVStore` under a wrapper chain, or ``None``."""
    for layer in _layers(store):
        if isinstance(layer, DurableKVStore):
            return layer
    return None


def _call_each(store: Any, method: str) -> None:
    for layer in _layers(store):
        hook = getattr(layer, method, None)
        if callable(hook):
            hook()


def flush_caches(store: Any) -> None:
    """Before a checkpoint captures the backing tier: every layer exposing
    ``flush()`` (a write-back cache) writes its unflushed entries down,
    outermost first."""
    _call_each(store, "flush")


def drop_caches(store: Any) -> None:
    """After the backing tier changed underneath the wrappers (segment-level
    checkpoint restore): every layer exposing ``drop_cache()`` forgets what
    it holds, unflushed writes included."""
    _call_each(store, "drop_cache")
