"""Batch read/write (``mget``/``mput``) across every store implementation.

The contract (``kvstore/store.py``): results come back in
input order, missing keys yield the default, duplicates are
resolved independently on read and written in order (last wins) on write,
and wrappers must route batches through their inner store's batch ops so
sharding/instrumentation/fault-injection all see them.
"""

import pytest

from repro.kvstore import InMemoryKVStore, Namespace, ShardedKVStore
from repro.obs import Observability
from tests.support.faults import FlakyKVStore, TransientKVError


def _stores():
    return {
        "memory": InMemoryKVStore(),
        "sharded": ShardedKVStore(n_shards=4),
        "namespace": Namespace(InMemoryKVStore(), "ns"),
        "instrumented": Observability.create().instrument_store(
            ShardedKVStore(n_shards=4)
        ),
    }


@pytest.fixture(params=["memory", "sharded", "namespace", "instrumented"])
def store(request):
    return _stores()[request.param]


class TestMget:
    def test_results_in_input_order(self, store):
        for i in range(10):
            store.put(f"k{i}", i)
        keys = [f"k{i}" for i in (7, 2, 9, 0, 4)]
        assert store.mget(keys) == [7, 2, 9, 0, 4]

    def test_missing_keys_get_default(self, store):
        store.put("present", 1)
        assert store.mget(["absent", "present", "gone"], default=-1) == [
            -1,
            1,
            -1,
        ]

    def test_duplicate_keys_resolved_independently(self, store):
        store.put("dup", "x")
        assert store.mget(["dup", "dup", "missing"]) == ["x", "x", None]

    def test_empty_batch(self, store):
        assert store.mget([]) == []

    def test_matches_scalar_gets(self, store):
        for i in range(6):
            store.put(f"k{i}", i * i)
        keys = [f"k{i}" for i in range(8)]  # two misses at the tail
        assert store.mget(keys) == [store.get(k) for k in keys]


class TestMput:
    def test_writes_all(self, store):
        store.mput([(f"k{i}", i) for i in range(5)])
        assert store.mget([f"k{i}" for i in range(5)]) == list(range(5))

    def test_duplicate_keys_last_wins(self, store):
        store.mput([("k", "first"), ("k", "second")])
        assert store.get("k") == "second"

    def test_empty_batch(self, store):
        store.mput([])
        assert len(store) == 0


class TestShardedRouting:
    def test_batch_reaches_every_shard(self):
        store = ShardedKVStore(n_shards=4)
        keys = [f"k{i}" for i in range(32)]
        store.mput([(k, k.upper()) for k in keys])
        assert store.mget(keys) == [k.upper() for k in keys]
        # Every key is readable from its owning shard via scalar get too.
        assert [store.get(k) for k in keys] == [k.upper() for k in keys]


class TestNamespaceIsolation:
    def test_batches_stay_inside_the_namespace(self):
        backing = InMemoryKVStore()
        left = Namespace(backing, "left")
        right = Namespace(backing, "right")
        left.mput([("k", "L")])
        right.mput([("k", "R")])
        assert left.mget(["k"]) == ["L"]
        assert right.mget(["k"]) == ["R"]


class TestFaultInjection:
    def test_flaky_store_fallback_goes_through_injection(self):
        # FlakyKVStore does not override mget/mput: the base-class loop
        # fallback must route through the injected scalar ops.
        flaky = FlakyKVStore(InMemoryKVStore())
        flaky.mput([("a", 1), ("b", 2)])
        flaky.fail_next(1)
        with pytest.raises(TransientKVError):
            flaky.mget(["a", "b"])
        assert flaky.errors_raised == 1


class TestInstrumented:
    def test_batch_ops_counted_with_key_totals(self, virtual_obs):
        obs = virtual_obs
        store = obs.instrument_store(InMemoryKVStore())
        store.mput([(f"k{i}", i) for i in range(3)])
        store.mget([f"k{i}" for i in range(5)])
        doc = obs.registry.snapshot()
        batch = doc["kvstore_batch_keys_total"]
        by_op = {
            tuple(sorted(series["labels"].items())): series["value"]
            for series in batch["series"]
        }
        assert by_op[(("op", "mput"),)] == 3
        assert by_op[(("op", "mget"),)] == 5
