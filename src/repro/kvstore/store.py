"""Key-value store interface and the single-shard in-memory implementation.

The paper stores all mutable state — user vectors ``x_u``, video vectors
``y_i``, user histories, and similar-video tables — in "a distributed
memory-based key-value storage" (§5.1) so that any worker can address any
vector by key without touching unrelated state.  :class:`KVStore` is that
interface; :class:`InMemoryKVStore` is one shard of it.

The contract is exactly what the system calls: ``get`` / ``put`` /
``delete`` / ``update`` / membership / ``len`` / ``keys`` (abstract) and
``items`` / ``setdefault`` / ``mget`` / ``mput`` / ``snapshot_entries`` /
``restore_entries`` (concrete, overridable).  There are no versions, no
compare-and-set and no expiry: fields grouping makes every key
single-writer (§5.1–5.2), so the one read-modify-write the system needs is
:meth:`KVStore.update`, which runs its callable under the owning store's
lock.  State held as one entry of many rows — the factor arenas, the
similar-video lists — is single-writer per row instead: fields grouping
sends every write of a row to one worker, and the value's own lock keeps
readers off a row while it is written.

Values are stored by reference; callers that mutate values in place (numpy
vectors) must write them back with :meth:`put` so every wrapper — metrics,
fault injection — sees the change.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator

Key = Hashable

_MISSING = object()


@dataclass(frozen=True, slots=True)
class EntrySnapshot:
    """One entry captured for a checkpoint."""

    key: Key
    value: Any


class KVStore(ABC):
    """Abstract key-value store with atomic per-key updates."""

    @abstractmethod
    def get(self, key: Key, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default`` when absent."""

    @abstractmethod
    def put(self, key: Key, value: Any) -> None:
        """Store ``value`` under ``key``."""

    @abstractmethod
    def delete(self, key: Key) -> bool:
        """Remove ``key``; return ``True`` if it was present."""

    @abstractmethod
    def update(self, key: Key, fn: Callable[[Any], Any], default: Any = None) -> Any:
        """Atomically replace ``key``'s value with ``fn(current_or_default)``.

        Returns the new value.  The callable runs under the store's lock, so
        it must be fast and must not call back into the same store.
        """

    @abstractmethod
    def __contains__(self, key: Key) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def keys(self) -> Iterator[Key]:
        """Iterate over the keys; snapshot semantics."""

    def items(self) -> Iterator[tuple[Key, Any]]:
        """Iterate ``(key, value)`` pairs over a snapshot of the keys."""
        for key in self.keys():
            value = self.get(key, _MISSING)
            if value is not _MISSING:
                yield key, value

    def setdefault(self, key: Key, factory: Callable[[], Any]) -> Any:
        """Return ``key``'s value, inserting ``factory()`` first if absent."""
        sentinel = _MISSING

        def _init(current: Any) -> Any:
            return factory() if current is sentinel else current

        return self.update(key, _init, default=sentinel)

    # -- batch operations --------------------------------------------------
    #
    # Contract (all implementations and wrappers):
    #   * ``mget`` returns one value per input key, in input order; absent
    #     keys yield ``default``.  Duplicate keys are allowed and each
    #     occurrence is resolved independently.
    #   * ``mput`` writes every ``(key, value)`` pair.  A duplicate key is
    #     written twice, in order (last write wins).
    #   * Neither operation is atomic across keys unless a concrete store
    #     says otherwise (``InMemoryKVStore`` holds its lock for the whole
    #     batch; ``ShardedKVStore`` is atomic per shard only).

    def mget(self, keys: Iterable[Key], default: Any = None) -> list[Any]:
        """Batch :meth:`get`: one result per key, in input order.

        The base implementation loops over :meth:`get` so third-party
        stores keep working; concrete stores override it with a single
        locked pass.
        """
        return [self.get(key, default) for key in keys]

    def mput(self, items: Iterable[tuple[Key, Any]]) -> None:
        """Batch :meth:`put`.  The base implementation loops over it."""
        for key, value in items:
            self.put(key, value)

    # -- checkpoint support ------------------------------------------------

    def snapshot_entries(self) -> list[EntrySnapshot]:
        """Capture every entry.  Goes through :meth:`items`; stores whose
        iteration is not already one locked pass override it."""
        return [EntrySnapshot(key, value) for key, value in self.items()]

    def restore_entries(self, entries: Iterable[EntrySnapshot]) -> int:
        """Replace this store's contents with snapshot entries; return how
        many were loaded.  Keys the snapshot does not hold are deleted, so
        restoring a checkpoint rolls the store back to it, and restoring
        no entries empties the store."""
        for key in list(self.keys()):
            self.delete(key)
        count = 0
        for entry in entries:
            self.put(entry.key, entry.value)
            count += 1
        return count


class InMemoryKVStore(KVStore):
    """A thread-safe dict-backed store (one shard)."""

    def __init__(self) -> None:
        self._data: dict[Key, Any] = {}
        self._lock = threading.RLock()

    def get(self, key: Key, default: Any = None) -> Any:
        with self._lock:
            return self._data.get(key, default)

    def put(self, key: Key, value: Any) -> None:
        with self._lock:
            self._data[key] = value

    def delete(self, key: Key) -> bool:
        with self._lock:
            return self._data.pop(key, _MISSING) is not _MISSING

    def update(self, key: Key, fn: Callable[[Any], Any], default: Any = None) -> Any:
        with self._lock:
            new_value = fn(self._data.get(key, default))
            self._data[key] = new_value
            return new_value

    def mget(self, keys: Iterable[Key], default: Any = None) -> list[Any]:
        """Batch get under one lock acquisition (atomic snapshot)."""
        with self._lock:
            return [self._data.get(key, default) for key in keys]

    def mput(self, items: Iterable[tuple[Key, Any]]) -> None:
        """Batch put under one lock acquisition (atomic batch)."""
        with self._lock:
            self._data.update(items)

    def __contains__(self, key: Key) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> Iterator[Key]:
        with self._lock:
            return iter(list(self._data))

    def clear(self) -> None:
        """Remove every entry (used between benchmark rounds)."""
        with self._lock:
            self._data.clear()

    # -- checkpoint support ------------------------------------------------

    def snapshot_entries(self) -> list[EntrySnapshot]:
        """All entries captured under one lock acquisition."""
        with self._lock:
            return [EntrySnapshot(key, value) for key, value in self._data.items()]

    def restore_entries(self, entries: Iterable[EntrySnapshot]) -> int:
        """Replace every entry under one lock acquisition."""
        loaded = [(entry.key, entry.value) for entry in entries]
        with self._lock:
            self._data.clear()
            self._data.update(loaded)
        return len(loaded)
