"""Tests for the sharded KV store."""

import pytest

from repro.kvstore import ShardedKVStore


@pytest.fixture
def store():
    return ShardedKVStore(n_shards=8)


class TestSharding:
    def test_key_always_maps_to_same_shard(self, store):
        for key in ("u1", "v9", ("user", "x")):
            assert store.shard_index(key) == store.shard_index(key)

    def test_shard_index_in_range(self, store):
        for i in range(200):
            assert 0 <= store.shard_index(f"k{i}") < 8

    def test_keys_spread_across_shards(self, store):
        for i in range(400):
            store.put(f"key-{i}", i)
        sizes = [len(shard) for shard in store._shards]
        assert sum(sizes) == 400
        assert all(size > 10 for size in sizes)

    def test_value_lives_on_owning_shard(self, store):
        store.put("k", "v")
        shard = store.shard_for("k")
        assert shard.get("k") == "v"
        others = [s for s in store._shards if s is not shard]
        assert all("k" not in s for s in others)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedKVStore(n_shards=0)

    def test_single_shard_works(self):
        store = ShardedKVStore(n_shards=1)
        store.put("a", 1)
        assert store.get("a") == 1


class TestDelegation:
    def test_get_put_delete(self, store):
        store.put("k", 1)
        assert store.get("k") == 1
        assert "k" in store
        assert store.delete("k")
        assert store.get("k") is None

    def test_update(self, store):
        store.update("counter", lambda x: x + 5, default=0)
        assert store.get("counter") == 5

    def test_len_sums_shards(self, store):
        for i in range(50):
            store.put(f"k{i}", i)
        assert len(store) == 50

    def test_keys_covers_all_shards(self, store):
        expected = {f"k{i}" for i in range(50)}
        for key in expected:
            store.put(key, 0)
        assert set(store.keys()) == expected

    def test_clear(self, store):
        store.put("a", 1)
        store.clear()
        assert len(store) == 0
