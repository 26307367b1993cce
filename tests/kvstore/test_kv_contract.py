"""The ``KVStore`` contract, run against every store the system builds.

The model lives in an in-memory store — a single shard, a sharded store,
namespaced tables over either, and the instrumented wrapper the serving
stack puts on top — and a full checkpoint is its only copy on disk.  So
beyond the single-key ops, every store must round-trip its entries and
``restore_entries`` must *replace* its contents: recovery relies on it to
roll a store back to a checkpoint, or to empty it when there is none.
"""

import random

import pytest

from repro.kvstore import InMemoryKVStore, Namespace, ShardedKVStore
from repro.obs import Observability
from repro.reliability import CheckpointManager

_FACTORIES = {
    "memory": InMemoryKVStore,
    "sharded": lambda: ShardedKVStore(n_shards=4),
    "namespace": lambda: Namespace(InMemoryKVStore(), "ns"),
    "namespace_sharded": lambda: Namespace(ShardedKVStore(n_shards=4), "ns"),
    "instrumented": lambda: Observability.create().instrument_store(
        ShardedKVStore(n_shards=4)
    ),
}


@pytest.fixture(params=sorted(_FACTORIES))
def make(request):
    return _FACTORIES[request.param]


@pytest.fixture
def store(make):
    return make()


def test_put_get_roundtrip(store):
    store.put("k", {"a": [1, 2]})
    store.put(("tuple", 3), 0.0)
    assert store.get("k") == {"a": [1, 2]}
    assert store.get(("tuple", 3)) == 0.0
    assert store.get("absent") is None
    assert store.get("absent", "dflt") == "dflt"


def test_delete(store):
    store.put("k", 1)
    assert store.delete("k") is True
    assert store.delete("k") is False
    assert store.get("k") is None
    assert "k" not in store


def test_update_and_setdefault(store):
    assert store.update("n", lambda x: x + 1, default=0) == 1
    assert store.update("n", lambda x: x + 1, default=0) == 2
    made = []
    assert store.setdefault("s", lambda: made.append(1) or [7]) == [7]
    assert store.setdefault("s", lambda: made.append(1) or [8]) == [7]
    assert made == [1]


def test_contains_len_keys_items(store):
    store.put("a", 1)
    store.put("b", 2)
    assert "a" in store
    assert "nope" not in store
    assert len(store) == 2
    assert sorted(store.keys()) == ["a", "b"]
    assert sorted(store.items()) == [("a", 1), ("b", 2)]


def test_matches_a_dict_reference(store):
    """A seeded mix of every op agrees with a plain dict, op for op."""
    rng = random.Random(34)
    reference = {}
    keys = [f"k{i}" for i in range(12)]
    for step in range(300):
        key = rng.choice(keys)
        roll = rng.random()
        if roll < 0.3:
            store.put(key, step)
            reference[key] = step
        elif roll < 0.45:
            assert store.delete(key) == (reference.pop(key, None) is not None)
        elif roll < 0.6:
            bumped = store.update(key, lambda x: x + 1, default=-1)
            reference[key] = reference.get(key, -1) + 1
            assert bumped == reference[key]
        elif roll < 0.75:
            batch = [(rng.choice(keys), step + i) for i in range(3)]
            store.mput(batch)
            reference.update(batch)
        else:
            probe = rng.sample(keys, 4)
            assert store.mget(probe, "-") == [reference.get(k, "-") for k in probe]
        assert len(store) == len(reference)
    assert dict(store.items()) == reference


def test_snapshot_restores_into_a_fresh_store(make, store):
    for i in range(20):
        store.put(f"k{i}", [i, i * i])
    entries = store.snapshot_entries()
    assert sorted(entry.key for entry in entries) == sorted(store.keys())

    fresh = make()
    assert fresh.restore_entries(entries) == 20
    assert dict(fresh.items()) == dict(store.items())


def test_restore_entries_replaces_the_contents(store):
    store.put("a", 1)
    store.put("b", 2)
    entries = store.snapshot_entries()
    store.put("a", 10)
    store.delete("b")
    store.put("c", 3)
    assert store.restore_entries(entries) == 2
    assert dict(store.items()) == {"a": 1, "b": 2}


def test_restoring_no_entries_empties_the_store(store):
    store.mput([(f"k{i}", i) for i in range(10)])
    assert store.restore_entries(()) == 0
    assert len(store) == 0
    assert list(store.keys()) == []


def test_checkpoint_rolls_the_store_back(make, store, tmp_path):
    """A full checkpoint written from one store restores into another of
    the same kind that has moved on, and leaves exactly the snapshot."""
    manager = CheckpointManager(tmp_path / "ckpt", fsync=False)
    store.mput([("a", 1), (("b", 2), [2.0])])
    info = manager.create(store, wal_seq=7)
    assert info.n_entries == 2

    later = make()
    later.mput([("a", 99), ("c", 3)])
    assert manager.restore_latest(later) == info
    assert dict(later.items()) == {"a": 1, ("b", 2): [2.0]}


def test_namespace_restore_leaves_sibling_namespaces_alone():
    backing = ShardedKVStore(n_shards=4)
    mine, theirs = Namespace(backing, "mine"), Namespace(backing, "theirs")
    mine.put("k", 1)
    theirs.put("k", "other")
    entries = mine.snapshot_entries()
    mine.put("extra", 2)
    theirs.put("extra", "other-2")

    mine.restore_entries(entries)
    assert dict(mine.items()) == {"k": 1}
    assert dict(theirs.items()) == {"k": "other", "extra": "other-2"}
    mine.restore_entries(())
    assert len(mine) == 0 and len(theirs) == 2
