"""The per-worker cache + combiner of §5.1, as one write-back store.

§5.1 of the paper notes that because fields grouping sends all queries for
the same key to the same worker, that worker can apply "the combiner
technique and the cache technique" to cut KV-store traffic.
:class:`ReadThroughCache` is both: reads of a hot key are served from a
local LRU, and repeated writes to it are *combined* in that LRU — the
backing store sees one record per dirty key per :meth:`~ReadThroughCache
.flush`, not one per write.

Coherence with the backing store comes from the fields-grouping guarantee
that no other worker writes the same keys, which is exactly the invariant
the topology tests assert.  The cache is additionally safe to share between
threads of one process (its state is lock-guarded), because the served
durable tier puts one instance under the gateway's thread pool.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable, Iterator

from .store import EntrySnapshot, Key, KVStore

_MISSING = object()


class ReadThroughCache(KVStore):
    """A write-back LRU cache in front of a :class:`KVStore` — itself a store.

    Reads fill the cache.  Writes (``put`` / ``update`` / ``mput``) touch
    only the cache and mark the key dirty; ``update`` applies ``fn`` to the
    cached value and reads the backing store only on a miss.  The backing
    store catches up when :meth:`flush` writes every dirty entry in one
    ``mput``, or when a dirty entry is evicted (it is written first, so
    ``capacity`` bounds memory whatever the flush cadence).  Every
    :class:`KVStore` method answers over the unflushed writes, so the cache
    can be handed to any component that expects a store — the tiering
    pattern is a ``ReadThroughCache`` over a
    :class:`~repro.kvstore.durable.DurableKVStore`: hot set in memory, full
    state on disk as of the last flush.

    A crash loses the writes since the last flush.  The served stack logs
    every action to the :class:`~repro.reliability.wal.ActionWAL` first and
    flushes at checkpoints (DESIGN.md "Durability point"); a bare cache with
    no log to replay must call :meth:`flush` at its own commit points.

    Thread-safe: one lock guards the LRU, the dirty set and the hit/miss
    counters and is held across backing calls, so a fill can never
    overwrite a newer write.
    """

    def __init__(self, backing: KVStore, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._backing = backing
        self._capacity = capacity
        self._cache: OrderedDict[Key, Any] = OrderedDict()
        #: keys whose cached value the backing store has not seen yet;
        #: always a subset of ``_cache``.
        self._dirty: set[Key] = set()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    @property
    def backing(self) -> KVStore:
        return self._backing

    def _lookup(self, key: Key) -> Any:
        """The cached value (touched and counted) or ``_MISSING``.  Lock held."""
        if key in self._cache:
            self._cache.move_to_end(key)
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        return _MISSING

    def _load(self, key: Key) -> Any:
        """The value from the cache, else from the backing store (filling
        the cache), else ``_MISSING``.  Lock held."""
        value = self._lookup(key)
        if value is _MISSING:
            value = self._backing.get(key, _MISSING)
            if value is not _MISSING:
                self._insert(key, value)
        return value

    def get(self, key: Key, default: Any = None) -> Any:
        with self._lock:
            value = self._load(key)
            return default if value is _MISSING else value

    def put(self, key: Key, value: Any) -> None:
        with self._lock:
            self._insert(key, value, dirty=True)

    def delete(self, key: Key) -> bool:
        """Deletes are not deferred: the backing store forgets the key now,
        so no flush or eviction can resurrect it."""
        with self._lock:
            cached = self._cache.pop(key, _MISSING) is not _MISSING
            self._dirty.discard(key)
            return self._backing.delete(key) or cached

    def update(self, key: Key, fn: Callable[[Any], Any], default: Any = None) -> Any:
        with self._lock:
            current = self._load(key)
            new_value = fn(default if current is _MISSING else current)
            self._insert(key, new_value, dirty=True)
            return new_value

    def __contains__(self, key: Key) -> bool:
        with self._lock:
            return key in self._cache or key in self._backing

    def _unflushed_new_keys(self) -> list[Key]:
        """Dirty keys the backing store has never held.  Lock held."""
        return [
            key
            for key in self._cache
            if key in self._dirty and key not in self._backing
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._backing) + len(self._unflushed_new_keys())

    def keys(self) -> Iterator[Key]:
        with self._lock:
            return iter([*self._backing.keys(), *self._unflushed_new_keys()])

    def mget(self, keys, default: Any = None) -> list[Any]:
        """Batch get: cache hits are served locally; all misses go to the
        backing store in a single :meth:`KVStore.mget` call and fill the
        cache.  Results follow input order (the ``mget`` contract)."""
        keys = list(keys)
        out: list[Any] = [default] * len(keys)
        miss_positions: list[int] = []
        with self._lock:
            for position, key in enumerate(keys):
                value = self._lookup(key)
                if value is _MISSING:
                    miss_positions.append(position)
                else:
                    out[position] = value
            if miss_positions:
                fetched = self._backing.mget(
                    [keys[p] for p in miss_positions], _MISSING
                )
                for position, value in zip(miss_positions, fetched):
                    if value is _MISSING:
                        continue
                    self._insert(keys[position], value)
                    out[position] = value
        return out

    def mput(self, items: Iterable[tuple[Key, Any]]) -> None:
        with self._lock:
            for key, value in items:
                self._insert(key, value, dirty=True)

    def flush(self) -> int:
        """Write every dirty entry to the backing store in one ``mput``;
        return how many.  After it the backing store alone holds the full
        state — checkpoints call this (via :func:`repro.kvstore.durable
        .flush_caches`) before sealing the durable log."""
        with self._lock:
            batch = [
                (key, value)
                for key, value in self._cache.items()
                if key in self._dirty
            ]
            if batch:
                self._backing.mput(batch)
                self._dirty.clear()
            return len(batch)

    def invalidate(self, key: Key) -> None:
        """Forget ``key``'s cached value — an unflushed write included —
        e.g. when an external writer is known to have replaced it."""
        with self._lock:
            self._cache.pop(key, None)
            self._dirty.discard(key)

    def drop_cache(self) -> None:
        """Forget every cached value and every unflushed write.  Tier-aware
        restores (:func:`repro.kvstore.durable.drop_caches`) call this on
        every layer after rolling the backing store back underneath it:
        writes the rollback undid must not be flushed over it."""
        with self._lock:
            self._cache.clear()
            self._dirty.clear()

    # -- checkpoint support (flushed, then delegated: after a flush the
    # -- backing store is the source of truth) ------------------------------

    def snapshot_entries(self) -> list[EntrySnapshot]:
        with self._lock:
            self.flush()
            return self._backing.snapshot_entries()

    def restore_entries(self, entries: Iterable[EntrySnapshot]) -> int:
        with self._lock:
            self.flush()
            self._cache.clear()
            return self._backing.restore_entries(entries)

    def _insert(self, key: Key, value: Any, dirty: bool = False) -> None:
        """Lock held.  A dirty entry pushed out by the LRU is written to
        the backing store before it is dropped."""
        self._cache[key] = value
        self._cache.move_to_end(key)
        if dirty:
            self._dirty.add(key)
        while len(self._cache) > self._capacity:
            oldest = next(iter(self._cache))
            if oldest in self._dirty:
                self._backing.put(oldest, self._cache[oldest])
                self._dirty.discard(oldest)
            del self._cache[oldest]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def cache_size(self) -> int:
        """How many values are currently cached (``len()`` reports the
        whole store, per the :class:`KVStore` contract)."""
        return len(self._cache)
