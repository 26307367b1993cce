"""KV store helpers for tests: a recording wrapper and plain-dict views.

* :class:`RecordingKVStore` wraps a store and records every call — which
  method, on which key — and whether the calling thread held a stored
  value's own lock at the time (the lock order is store lock first, then
  the value's: no code may call into the store while it holds a
  ``FactorArena`` or ``SimilarLists`` lock).
* :func:`record_demo_stores` puts a recorder under every store
  ``build_demo_gateway`` builds.
* :func:`contents` reads a store as a dict through ``snapshot_entries``;
  :func:`put` seeds one entry through ``update``.  The contract has no
  ``put`` or iteration of its own: the system never needs them.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Any, Callable, Iterable

from repro.kvstore import EntrySnapshot, InMemoryKVStore, Key, KVStore


def declared_methods() -> set[str]:
    """The methods :class:`KVStore` declares, dunders included."""
    return {
        name
        for name, value in vars(KVStore).items()
        if callable(value)
        and (not name.startswith("_") or name in KVStore.__abstractmethods__)
    }


def contents(store: KVStore) -> dict[Key, Any]:
    """Every entry of ``store`` as ``{key: value}``, in snapshot order."""
    return {entry.key: entry.value for entry in store.snapshot_entries()}


def put(store: KVStore, key: Key, value: Any) -> None:
    """Store ``value`` under ``key``, replacing whatever was there."""
    store.update(key, lambda _old: value)


class RecordingKVStore(KVStore):
    """Forwards every call to ``inner`` and records it.

    ``calls`` counts method names, ``keys`` every key read or written, and
    ``lock_order_violations`` the calls made while the calling thread held
    the lock of a value this store has handed out or stored.
    """

    def __init__(self, inner: KVStore) -> None:
        self.inner = inner
        self.calls: Counter[str] = Counter()
        self.keys: set[Key] = set()
        self.lock_order_violations = 0
        self._locked_values: list[Any] = []
        self._lock = threading.Lock()

    def _record(self, method: str, key: Key | None = None) -> None:
        with self._lock:
            self.calls[method] += 1
            if key is not None:
                self.keys.add(key)
            held = any(
                value._lock._is_owned() for value in self._locked_values
            )
            if held:
                self.lock_order_violations += 1

    def _watch(self, value: Any) -> Any:
        """Remember a value with its own lock, to check the lock order."""
        lock = getattr(value, "_lock", None)
        if lock is not None and hasattr(lock, "_is_owned"):
            with self._lock:
                if not any(v is value for v in self._locked_values):
                    self._locked_values.append(value)
        return value

    def get(self, key: Key, default: Any = None) -> Any:
        self._record("get", key)
        return self._watch(self.inner.get(key, default))

    def update(self, key: Key, fn: Callable[[Any], Any], default: Any = None) -> Any:
        self._record("update", key)
        return self._watch(self.inner.update(key, fn, default))

    def snapshot_entries(self) -> list[EntrySnapshot]:
        self._record("snapshot_entries")
        return self.inner.snapshot_entries()

    def restore_entries(self, entries: Iterable[EntrySnapshot]) -> int:
        self._record("restore_entries")
        loaded = list(entries)
        for entry in loaded:
            self._watch(entry.value)
        return self.inner.restore_entries(loaded)

    def prefixes(self) -> set[str]:
        """The first element of every ``(prefix, key)`` key recorded;
        a key that is not such a pair is recorded as its ``repr``."""
        return {
            key[0] if isinstance(key, tuple) and len(key) == 2 else repr(key)
            for key in self.keys
        }


def record_demo_stores(monkeypatch) -> list[RecordingKVStore]:
    """Make every ``InMemoryKVStore`` that ``build_demo_gateway`` builds
    a recorded one; the list fills as gateways are built."""
    made: list[RecordingKVStore] = []

    def recording_store() -> RecordingKVStore:
        made.append(RecordingKVStore(InMemoryKVStore()))
        return made[-1]

    monkeypatch.setattr("repro.serving.cli.InMemoryKVStore", recording_store)
    return made
