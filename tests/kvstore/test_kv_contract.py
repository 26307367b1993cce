"""The ``KVStore`` contract, run against every store the system builds.

The model lives in an in-memory store — bare, or under the instrumented
wrapper the serving stack puts on top — and a full checkpoint is its only
copy on disk.  The test wrappers that stand in for that store elsewhere in
the suite (the recording store, the fault-injecting store with no faults
scheduled) run the same contract, so what those tests conclude holds for
the store they stand in for.  The contract is the four methods the system calls: ``get``
and ``update`` for the model, ``snapshot_entries`` and
``restore_entries`` for checkpoints; ``restore_entries`` must *replace*
the contents, because recovery relies on it to roll a store back to a
checkpoint, or to empty it when there is none.
"""

import random

import pytest

from repro.kvstore import EntrySnapshot, InMemoryKVStore
from repro.obs import Observability
from repro.reliability import CheckpointManager
from tests.support.faults import FlakyKVStore
from tests.support.kv import RecordingKVStore, contents, declared_methods, put

_FACTORIES = {
    "memory": InMemoryKVStore,
    "instrumented": lambda: Observability.create().instrument_store(
        InMemoryKVStore()
    ),
    "recording": lambda: RecordingKVStore(InMemoryKVStore()),
    "instrumented_recording": lambda: Observability.create().instrument_store(
        RecordingKVStore(InMemoryKVStore())
    ),
    "flaky": lambda: FlakyKVStore(InMemoryKVStore()),
}


@pytest.fixture(params=sorted(_FACTORIES))
def make(request):
    return _FACTORIES[request.param]


@pytest.fixture
def store(make):
    return make()


def test_the_contract_is_four_methods():
    assert declared_methods() == {
        "get",
        "update",
        "snapshot_entries",
        "restore_entries",
    }


def test_put_get_roundtrip(store):
    put(store, "k", {"a": [1, 2]})
    put(store, ("tuple", 3), 0.0)
    assert store.get("k") == {"a": [1, 2]}
    assert store.get(("tuple", 3)) == 0.0
    assert store.get("absent") is None
    assert store.get("absent", "dflt") == "dflt"


def test_update_and_setdefault(store):
    """``update`` returns the new value; ``update(key, lambda v: v,
    default)`` is the insert-if-absent idiom: the first call stores the
    default, later calls keep what is there."""
    assert store.update("n", lambda x: x + 1, default=0) == 1
    assert store.update("n", lambda x: x + 1, default=0) == 2
    assert store.get("n") == 2
    assert store.update("s", lambda v: v, default=[7]) == [7]
    assert store.update("s", lambda v: v, default=[8]) == [7]
    assert contents(store) == {"n": 2, "s": [7]}


def test_matches_a_dict_reference(store):
    """A seeded mix of reads, writes and read-modify-writes agrees with a
    plain dict, op for op."""
    rng = random.Random(34)
    reference = {}
    keys = [f"k{i}" for i in range(12)]
    for step in range(300):
        key = rng.choice(keys)
        roll = rng.random()
        if roll < 0.4:
            put(store, key, step)
            reference[key] = step
        elif roll < 0.7:
            bumped = store.update(key, lambda x: x + 1, default=-1)
            reference[key] = reference.get(key, -1) + 1
            assert bumped == reference[key]
        else:
            assert store.get(key, "-") == reference.get(key, "-")
    assert contents(store) == reference


def test_snapshot_restores_into_a_fresh_store(make, store):
    for i in range(20):
        put(store, f"k{i}", [i, i * i])
    entries = store.snapshot_entries()
    assert [entry.key for entry in entries] == [f"k{i}" for i in range(20)]

    fresh = make()
    assert fresh.restore_entries(entries) == 20
    assert contents(fresh) == contents(store)


def test_restore_entries_replaces_the_contents(store):
    put(store, "a", 1)
    put(store, "b", 2)
    entries = store.snapshot_entries()
    put(store, "a", 10)
    put(store, "c", 3)
    assert store.restore_entries(entries) == 2
    assert contents(store) == {"a": 1, "b": 2}


def test_restoring_no_entries_empties_the_store(store):
    for i in range(10):
        put(store, f"k{i}", i)
    assert store.restore_entries(()) == 0
    assert store.snapshot_entries() == []


def test_checkpoint_rolls_the_store_back(make, store, tmp_path):
    """A full checkpoint written from one store restores into another of
    the same kind that has moved on, and leaves exactly the snapshot."""
    manager = CheckpointManager(tmp_path / "ckpt", fsync=False)
    put(store, "a", 1)
    put(store, ("b", 2), [2.0])
    info = manager.create(store, wal_seq=7)
    assert info.n_entries == 2

    later = make()
    put(later, "a", 99)
    put(later, "c", 3)
    assert manager.restore_latest(later) == info
    assert contents(later) == {"a": 1, ("b", 2): [2.0]}


def test_get_of_a_missing_key_stores_nothing(store):
    assert store.get("absent", []) == []
    assert store.get(("history", "u1")) is None
    assert store.snapshot_entries() == []


def test_update_sees_the_default_only_when_the_key_is_absent(store):
    handed = []

    def record(value):
        handed.append(value)
        return "set"

    store.update("k", record, default="dflt")
    store.update("k", record, default="dflt")
    assert handed == ["dflt", "set"]


def test_falsy_values_are_values(store):
    """0, None and empty containers are stored values: a read returns
    them, not the default."""
    for key, value in (("zero", 0), ("none", None), ("empty", [])):
        put(store, key, value)
        assert store.get(key, "dflt") == value
    assert store.update("none", lambda v: v, default="dflt") is None
    assert contents(store) == {"zero": 0, "none": None, "empty": []}


def test_repeated_writes_last_wins(store):
    for value in ("first", "second", "third"):
        put(store, "k", value)
    assert store.get("k") == "third"
    assert contents(store) == {"k": "third"}


def test_prefixed_keys_with_a_shared_suffix_do_not_collide(store):
    """The model's components share one store by key prefix: the same id
    under different prefixes — or bare — is a different entry."""
    names = ("history", "hot", "mf:meta", "simtable")
    for name in names:
        put(store, (name, "u1"), name.upper())
    put(store, "u1", "bare")
    for name in names:
        assert store.get((name, "u1")) == name.upper()
    assert store.get("u1") == "bare"
    assert len(store.snapshot_entries()) == len(names) + 1


def test_values_are_stored_by_reference(store):
    """A value mutated in place inside ``update`` is the value later reads
    return: the factor arenas and similar-video lists rely on it."""
    rows = store.update("rows", lambda _old: [1], default=None)
    store.update("rows", lambda current: current.append(2) or current)
    assert store.get("rows") is rows
    assert rows == [1, 2]


def test_a_failing_update_changes_nothing(store):
    put(store, "n", 1)

    def boom(_value):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        store.update("n", boom)
    with pytest.raises(RuntimeError):
        store.update("absent", boom, default=0)
    assert contents(store) == {"n": 1}


def test_snapshot_is_in_first_write_order(store):
    """Checkpoints pickle entries in snapshot order: the order keys were
    first written, an update keeping a key's place."""
    for key in ("b", ("a", 1), "c"):
        put(store, key, 0)
    store.update("b", lambda n: n + 1)
    assert [e.key for e in store.snapshot_entries()] == ["b", ("a", 1), "c"]


def test_a_snapshot_does_not_see_later_writes(store):
    put(store, "a", 1)
    entries = store.snapshot_entries()
    put(store, "a", 2)
    put(store, "b", 3)
    assert entries == [EntrySnapshot("a", 1)]


def test_restore_keeps_the_snapshot_order(make, store):
    """A restored store snapshots in the order it was restored, so a
    checkpoint of a recovered store pickles the same entry sequence."""
    keys = ["z", ("mf:meta", "mu"), "a", ("history", "u2"), "m"]
    for n, key in enumerate(keys):
        put(store, key, n)
    fresh = make()
    fresh.restore_entries(store.snapshot_entries())
    assert fresh.snapshot_entries() == store.snapshot_entries()
    assert [e.key for e in fresh.snapshot_entries()] == keys
