"""Tests for the write-back cache (§5.1's cache + combiner techniques)."""

import pytest

from repro.kvstore import InMemoryKVStore, ReadThroughCache


class TestReadThroughCache:
    def test_read_fills_cache(self):
        backing = InMemoryKVStore()
        backing.put("k", "v")
        cache = ReadThroughCache(backing, capacity=4)
        assert cache.get("k") == "v"
        assert cache.misses == 1
        assert cache.get("k") == "v"
        assert cache.hits == 1

    def test_miss_on_absent_key_returns_default(self):
        cache = ReadThroughCache(InMemoryKVStore(), capacity=4)
        assert cache.get("nope", "dflt") == "dflt"
        # absent keys are not cached
        assert cache.cache_size == 0

    def test_write_through(self):
        """Writes reach the backing store at ``flush``, not before."""
        backing = InMemoryKVStore()
        cache = ReadThroughCache(backing, capacity=4)
        cache.put("k", 1)
        assert "k" not in backing
        assert cache.get("k") == 1
        assert cache.hits == 1  # served from cache
        assert cache.flush() == 1
        assert backing.get("k") == 1

    def test_lru_eviction(self):
        backing = InMemoryKVStore()
        for i in range(5):
            backing.put(f"k{i}", i)
        cache = ReadThroughCache(backing, capacity=3)
        for i in range(4):
            cache.get(f"k{i}")
        # k0 is the least recently used and must have been evicted
        assert cache.cache_size == 3
        cache.get("k0")
        assert cache.misses == 5

    def test_lru_touch_on_read(self):
        backing = InMemoryKVStore()
        for i in range(4):
            backing.put(f"k{i}", i)
        cache = ReadThroughCache(backing, capacity=2)
        cache.get("k0")
        cache.get("k1")
        cache.get("k0")  # touch k0 so k1 becomes LRU
        cache.get("k2")  # evicts k1
        cache.get("k0")
        assert cache.hits == 2  # second k0 read and final k0 read

    def test_invalidate(self):
        backing = InMemoryKVStore()
        backing.put("k", "old")
        cache = ReadThroughCache(backing, capacity=4)
        cache.get("k")
        backing.put("k", "new")  # external writer
        assert cache.get("k") == "old"  # stale until invalidated
        cache.invalidate("k")
        assert cache.get("k") == "new"

    def test_hit_rate(self):
        backing = InMemoryKVStore()
        backing.put("k", 1)
        cache = ReadThroughCache(backing, capacity=2)
        assert cache.hit_rate == 0.0
        cache.get("k")
        cache.get("k")
        cache.get("k")
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReadThroughCache(InMemoryKVStore(), capacity=0)

    # -- write-back: the cache is also §5.1's combiner -----------------------

    def test_updates_combine_until_flush(self):
        backing = InMemoryKVStore()
        cache = ReadThroughCache(backing, capacity=4)
        for _ in range(10):
            cache.update("counter", lambda n: n + 1, default=0)
        assert cache.get("counter") == 10
        assert backing.get("counter") is None  # nothing written yet
        cache.flush()
        assert backing.get("counter") == 10

    def test_update_reads_backing_on_miss(self):
        backing = InMemoryKVStore()
        backing.put("counter", 5)
        cache = ReadThroughCache(backing, capacity=4)
        assert cache.update("counter", lambda n: n + 3, default=0) == 8
        assert cache.misses == 1
        assert cache.update("counter", lambda n: n + 1, default=0) == 9
        assert cache.hits == 1  # the second update never left the cache
        cache.flush()
        assert backing.get("counter") == 9

    def test_dirty_eviction_writes_first(self):
        """``capacity`` stays the only bound: an unflushed entry pushed
        out by the LRU lands in the backing store, a clean one is dropped."""
        backing = InMemoryKVStore()
        cache = ReadThroughCache(backing, capacity=2)
        cache.put("a", 1)
        cache.put("b", 1)
        assert len(backing) == 0
        cache.put("a", 2)  # touches "a": "b" is now the oldest
        cache.put("c", 1)  # evicts "b"
        assert dict(backing.items()) == {"b": 1}
        assert cache.cache_size == 2
        assert cache.get("b") == 1  # refilled clean; evicts dirty "a"
        assert backing.get("a") == 2
        assert cache.flush() == 1  # only "c" is still unflushed

    def test_flush_returns_key_count(self):
        cache = ReadThroughCache(InMemoryKVStore(), capacity=4)
        cache.put("a", 1)
        cache.put("b", 1)
        cache.put("a", 2)
        assert cache.flush() == 2
        assert cache.flush() == 0

    def test_write_back_equivalent_to_direct_writes(self):
        """Combining in the cache == applying every update to the store,
        through evictions (capacity 3 under 5 keys) and a final flush."""
        direct = InMemoryKVStore()
        backing = InMemoryKVStore()
        cache = ReadThroughCache(backing, capacity=3)
        for i in range(100):
            key = f"k{i % 5}"
            direct.update(key, lambda x, d=i: x + d, default=0)
            cache.update(key, lambda x, d=i: x + d, default=0)
        assert dict(cache.items()) == dict(direct.items())
        cache.flush()
        assert dict(backing.items()) == dict(direct.items())

    def test_contract_answers_over_unflushed_writes(self):
        backing = InMemoryKVStore()
        backing.put("old", 0)
        cache = ReadThroughCache(backing, capacity=4)
        cache.put("new", 1)
        cache.put("old", 2)
        assert len(cache) == 2
        assert sorted(cache.keys()) == ["new", "old"]
        assert dict(cache.items()) == {"new": 1, "old": 2}
        assert "new" in cache
        assert len(backing) == 1  # none of that flushed anything

    def test_delete_is_not_resurrected_by_flush(self):
        backing = InMemoryKVStore()
        cache = ReadThroughCache(backing, capacity=4)
        cache.put("k", 1)
        assert cache.delete("k") is True  # known only to the cache
        assert cache.delete("k") is False
        cache.flush()
        assert "k" not in cache and "k" not in backing

    def test_snapshot_flushes_and_restore_keeps_unflushed_writes(self):
        backing = InMemoryKVStore()
        cache = ReadThroughCache(backing, capacity=4)
        cache.put("a", 1)
        entries = cache.snapshot_entries()
        assert [(e.key, e.value) for e in entries] == [("a", 1)]
        assert backing.get("a") == 1
        cache.put("a", 2)
        cache.put("b", 3)
        assert cache.restore_entries(entries) == 1  # a=1 wins, b survives
        assert dict(cache.items()) == {"a": 1, "b": 3}

    def test_drop_cache_discards_unflushed_writes(self):
        """After a rollback underneath, writes the rollback undid must
        never be flushed over the restored state."""
        backing = InMemoryKVStore()
        backing.put("k", "checkpointed")
        cache = ReadThroughCache(backing, capacity=4)
        cache.put("k", "after the checkpoint")
        cache.drop_cache()
        assert cache.flush() == 0
        assert cache.get("k") == "checkpointed"
