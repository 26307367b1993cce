"""Concurrency tests: the store must be safe under real thread interleaving."""

import sys
import threading
from collections import OrderedDict

import pytest

from repro.kvstore import InMemoryKVStore, ReadThroughCache, ShardedKVStore


def _hammer(fn, n_threads=8, n_iter=200):
    """Run ``fn(thread_idx, i)`` from ``n_threads`` threads concurrently."""
    errors = []
    barrier = threading.Barrier(n_threads)

    def run(thread_idx):
        try:
            barrier.wait()  # maximise interleaving
            for i in range(n_iter):
                fn(thread_idx, i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(t,)) for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


class TestAtomicUpdate:
    def test_concurrent_increments_lose_nothing(self):
        store = InMemoryKVStore()
        _hammer(lambda t, i: store.update("n", lambda x: x + 1, default=0))
        assert store.get("n") == 8 * 200

    def test_concurrent_increments_sharded(self):
        store = ShardedKVStore(n_shards=4)
        _hammer(
            lambda t, i: store.update(f"k{i % 10}", lambda x: x + 1, default=0)
        )
        assert sum(store.get(f"k{i}") for i in range(10)) == 8 * 200

    def test_concurrent_puts_distinct_keys(self):
        store = ShardedKVStore(n_shards=4)
        _hammer(lambda t, i: store.put((t, i), i))
        assert len(store) == 8 * 200


class _InterruptedLRU(OrderedDict):
    """An LRU dict that lets another thread run right after a membership
    check says ``True`` — the window an unguarded check-then-act leaves."""

    def __init__(self, intrude):
        super().__init__()
        self.intrude = intrude
        self.armed_key = None

    def __contains__(self, key):
        present = super().__contains__(key)
        if present and key == self.armed_key:
            self.armed_key = None
            self.intrude()
        return present


class TestSharedReadThroughCache:
    """The served durable tier shares one cache between gateway threads."""

    @pytest.mark.parametrize("read", ["get", "mget"])
    def test_eviction_between_lookup_and_touch(self, read):
        """A reader that saw its key cached must not trip over a concurrent
        eviction of that key (``KeyError`` out of ``move_to_end``)."""
        backing = InMemoryKVStore()
        backing.mput([(key, key * key) for key in range(4)])
        cache = ReadThroughCache(backing, capacity=2)
        intruder = threading.Thread(
            target=lambda: [cache.get(2), cache.get(3)]  # evicts 0 and 1
        )

        def intrude():
            intruder.start()
            # Unguarded, the intruder finishes at once; guarded, it blocks
            # on the cache lock until this read returns.
            intruder.join(timeout=0.1)

        lru = cache._cache = _InterruptedLRU(intrude)
        cache.get(0)
        cache.get(1)
        lru.armed_key = 0
        if read == "get":
            assert cache.get(0) == 0
        else:
            assert cache.mget([0, 1]) == [0, 1]
        intruder.join(timeout=5)
        assert not intruder.is_alive()
        assert cache.cache_size == 2

    def test_counters_and_capacity_hold_under_threads(self):
        """Four ``get`` and two ``mget`` threads over a cache that evicts on
        almost every lookup: right answers, no lost hit/miss count."""
        backing = InMemoryKVStore()
        keys = list(range(8))
        backing.mput([(key, key * key) for key in keys])
        cache = ReadThroughCache(backing, capacity=2)
        n_iter = 1500

        def work(t, i):
            if t < 4:
                key = keys[(t + i) % len(keys)]
                assert cache.get(key) == key * key
            else:
                batch = [keys[(t + i + d) % len(keys)] for d in range(3)]
                assert cache.mget(batch) == [key * key for key in batch]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-7)
        try:
            _hammer(work, n_threads=6, n_iter=n_iter)
        finally:
            sys.setswitchinterval(interval)
        assert cache.hits + cache.misses == 4 * n_iter + 2 * n_iter * 3
        assert cache.cache_size <= 2
