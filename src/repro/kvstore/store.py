"""Key-value store interface and the in-memory implementation.

The paper stores all mutable state — user vectors ``x_u``, video vectors
``y_i``, user histories, and similar-video tables — in "a distributed
memory-based key-value storage" (§5.1) so that any worker can address any
vector by key without touching unrelated state.  :class:`KVStore` is that
interface; :class:`InMemoryKVStore` is the one store.

The contract is exactly what the system calls: the model reads with
``get`` and writes with ``update``, and checkpoints go through
``snapshot_entries`` / ``restore_entries``.  There are no versions, no
compare-and-set and no expiry: fields grouping makes every key
single-writer (§5.1–5.2), so the one read-modify-write the system needs is
:meth:`KVStore.update`, which runs its callable under the store's lock.
State held as one entry of many rows — the factor arenas, the
similar-video lists — is single-writer per row instead: fields grouping
sends every write of a row to one worker, and the value's own lock keeps
readers off a row while it is written.

Lock order: the store lock first, then a value's own lock (an ``update``
callable may take it); no code calls into the store while it holds a
value's lock.

Values are stored by reference; callers that mutate values in place do it
inside :meth:`KVStore.update` so every wrapper — metrics, fault
injection — sees the change.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

Key = Hashable


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
    def update(self, key: Key, fn: Callable[[Any], Any], default: Any = None) -> Any:
        """Atomically replace ``key``'s value with ``fn(current_or_default)``.

        Returns the new value.  The callable runs under the store's lock, so
        it must be fast and must not call back into the same store.
        """

    @abstractmethod
    def snapshot_entries(self) -> list[EntrySnapshot]:
        """Capture every entry, in insertion order, in one locked pass."""

    @abstractmethod
    def restore_entries(self, entries: Iterable[EntrySnapshot]) -> int:
        """Replace this store's contents with snapshot entries; return how
        many were loaded.  Keys the snapshot does not hold are deleted, so
        restoring a checkpoint rolls the store back to it, and restoring
        no entries empties the store."""


class InMemoryKVStore(KVStore):
    """A thread-safe dict-backed store: every key behind one lock."""

    def __init__(self) -> None:
        self._data: dict[Key, Any] = {}
        self._lock = threading.RLock()

    def get(self, key: Key, default: Any = None) -> Any:
        with self._lock:
            return self._data.get(key, default)

    def update(self, key: Key, fn: Callable[[Any], Any], default: Any = None) -> Any:
        with self._lock:
            new_value = fn(self._data.get(key, default))
            self._data[key] = new_value
            return new_value

    def snapshot_entries(self) -> list[EntrySnapshot]:
        with self._lock:
            return [EntrySnapshot(key, value) for key, value in self._data.items()]

    def restore_entries(self, entries: Iterable[EntrySnapshot]) -> int:
        loaded = [(entry.key, entry.value) for entry in entries]
        with self._lock:
            self._data.clear()
            self._data.update(loaded)
        return len(loaded)
