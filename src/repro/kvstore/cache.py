"""Caching and write-combining decorators for KV stores.

§5.1 of the paper notes that because fields grouping sends all queries for
the same key to the same worker, that worker can apply "the combiner
technique and the cache technique" to cut KV-store traffic.  These two
classes are those techniques:

* :class:`ReadThroughCache` keeps the hottest keys in a local LRU so repeated
  reads of the same vector skip the shared store.
* :class:`WriteCombiner` buffers associative updates (counter increments,
  list merges) locally and flushes them in batches.

Both were designed as *per-worker* objects: coherence with the backing
store comes from the fields-grouping guarantee that no other worker writes
the same keys, which is exactly the invariant the topology tests assert.
:class:`ReadThroughCache` is additionally safe to share between threads of
one process (its LRU is lock-guarded), because the served durable tier puts
one instance under the gateway's thread pool; :class:`WriteCombiner` is not.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable, Iterator

from .store import EntrySnapshot, Key, KVStore

_MISSING = object()


class ReadThroughCache(KVStore):
    """An LRU read cache in front of a :class:`KVStore` — itself a store.

    Reads fill the cache; writes go through to the backing store *and*
    update the cache (write-through), so a worker always reads its own
    writes.  :meth:`invalidate` drops a key, e.g. when an external writer is
    known to have touched it.

    As a full :class:`KVStore`, the cache can be handed to any component
    that expects a store — the tiering pattern is a ``ReadThroughCache``
    over a :class:`~repro.kvstore.durable.DurableKVStore`: hot set in
    memory, full state on disk.  Iteration and checkpoint capture always
    delegate to the backing store.

    Thread-safe: one lock guards the LRU and the hit/miss counters and is
    held across the backing call, so a fill can never overwrite a newer
    write-through (the served durable tier puts this object under the
    gateway's thread pool).
    """

    def __init__(self, backing: KVStore, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._backing = backing
        self._capacity = capacity
        self._cache: OrderedDict[Key, Any] = OrderedDict()
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

    def get(self, key: Key, default: Any = None) -> Any:
        with self._lock:
            value = self._lookup(key)
            if value is _MISSING:
                value = self._backing.get(key, _MISSING)
                if value is _MISSING:
                    return default
                self._insert(key, value)
            return value

    def put(self, key: Key, value: Any) -> None:
        with self._lock:
            self._backing.put(key, value)
            self._insert(key, value)

    def delete(self, key: Key) -> bool:
        with self._lock:
            self._cache.pop(key, None)
            return self._backing.delete(key)

    def update(self, key: Key, fn: Callable[[Any], Any], default: Any = None) -> Any:
        with self._lock:
            new_value = self._backing.update(key, fn, default=default)
            self._insert(key, new_value)
            return new_value

    def __contains__(self, key: Key) -> bool:
        with self._lock:
            return key in self._cache or key in self._backing

    def __len__(self) -> int:
        return len(self._backing)

    def keys(self) -> Iterator[Key]:
        return self._backing.keys()

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
        """Batch write-through: one backing ``mput``, then cache fill."""
        items = list(items)
        with self._lock:
            self._backing.mput(items)
            for key, value in items:
                self._insert(key, value)

    def invalidate(self, key: Key) -> None:
        with self._lock:
            self._cache.pop(key, None)

    def clear(self) -> None:
        """Forget every cached value (the backing store is untouched)."""
        with self._lock:
            self._cache.clear()

    #: Protocol hook: tier-aware restores (:func:`repro.kvstore.durable
    #: .drop_caches`) call ``drop_cache()`` on every layer after mutating
    #: the backing store underneath it.
    drop_cache = clear

    # -- checkpoint support (always delegated: the backing store is the
    # -- source of truth) --------------------------------------------------

    def snapshot_entries(self) -> list[EntrySnapshot]:
        return self._backing.snapshot_entries()

    def restore_entries(self, entries: Iterable[EntrySnapshot]) -> int:
        with self._lock:
            self._cache.clear()
            return self._backing.restore_entries(entries)

    def _insert(self, key: Key, value: Any) -> None:
        """Lock held."""
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self._capacity:
            self._cache.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def cache_size(self) -> int:
        """How many values are currently cached (``len()`` reports the
        backing store, per the :class:`KVStore` contract)."""
        return len(self._cache)


class WriteCombiner:
    """Buffers associative updates and flushes them to the store in batches.

    ``combine(pending, increment)`` must be associative so that combining
    locally before writing is equivalent to writing each increment through
    ``apply(current, increment)``.  For plain counters both are ``+``.

    Flushing happens automatically every ``flush_every`` buffered updates,
    or explicitly via :meth:`flush`.
    """

    def __init__(
        self,
        backing: KVStore,
        combine: Callable[[Any, Any], Any],
        apply: Callable[[Any, Any], Any] | None = None,
        initial: Callable[[], Any] | None = None,
        flush_every: int = 64,
    ) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self._backing = backing
        self._combine = combine
        self._apply = apply or combine
        self._initial = initial
        self._flush_every = flush_every
        self._pending: dict[Key, Any] = {}
        self._buffered = 0
        self.flushes = 0

    def add(self, key: Key, increment: Any) -> None:
        """Buffer ``increment`` for ``key``; may trigger an automatic flush."""
        if key in self._pending:
            self._pending[key] = self._combine(self._pending[key], increment)
        else:
            self._pending[key] = increment
        self._buffered += 1
        if self._buffered >= self._flush_every:
            self.flush()

    def flush(self) -> int:
        """Write all buffered updates through; return how many keys flushed."""
        flushed = len(self._pending)
        for key, delta in self._pending.items():

            def _merge(current: Any, d: Any = delta) -> Any:
                if current is _MISSING:
                    if self._initial is None:
                        return d
                    return self._apply(self._initial(), d)
                return self._apply(current, d)

            self._backing.update(key, _merge, default=_MISSING)
        self._pending.clear()
        self._buffered = 0
        if flushed:
            self.flushes += 1
        return flushed

    @property
    def pending_keys(self) -> int:
        return len(self._pending)
