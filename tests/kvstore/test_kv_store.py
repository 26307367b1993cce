"""Tests for the in-memory KV store."""

import pytest

from repro.kvstore import EntrySnapshot, InMemoryKVStore
from tests.support.kv import contents, put


@pytest.fixture
def store():
    return InMemoryKVStore()


class TestBasicOps:
    def test_get_missing_returns_default(self, store):
        assert store.get("nope") is None
        assert store.get("nope", 42) == 42

    def test_put_then_get(self, store):
        put(store, "k", "v")
        assert store.get("k") == "v"

    def test_overwrite(self, store):
        put(store, "k", 1)
        put(store, "k", 2)
        assert store.get("k") == 2

    def test_falsy_values_are_stored(self, store):
        """0, None, empty containers are legitimate values."""
        put(store, "zero", 0)
        put(store, "none", None)
        assert store.get("zero", "sentinel") == 0
        assert store.get("none", "sentinel") is None
        assert contents(store) == {"zero": 0, "none": None}

    def test_tuple_keys(self, store):
        put(store, ("user", "u1"), "x")
        put(store, ("video", "u1"), "y")
        assert store.get(("user", "u1")) == "x"
        assert store.get(("video", "u1")) == "y"

    def test_snapshot_keeps_insertion_order(self, store):
        """Checkpoints pickle entries in snapshot order, so the order is
        the order keys were first written — an update keeps a key's place."""
        for key in ("b", "a", "c"):
            put(store, key, key)
        put(store, "b", "again")
        assert [e.key for e in store.snapshot_entries()] == ["b", "a", "c"]

    def test_snapshot_is_a_copy(self, store):
        put(store, "a", 1)
        entries = store.snapshot_entries()
        put(store, "b", 2)  # a write after the snapshot does not reach it
        assert entries == [EntrySnapshot("a", 1)]


class TestUpdate:
    def test_update_applies_function(self, store):
        put(store, "n", 10)
        result = store.update("n", lambda x: x + 1)
        assert result == 11
        assert store.get("n") == 11

    def test_update_uses_default_when_missing(self, store):
        result = store.update("counter", lambda x: x + 1, default=0)
        assert result == 1

    def test_setdefault_inserts_once(self, store):
        """Insert-if-absent through ``update``, as the model builds its
        arenas: the factory runs only for the first call."""
        calls = []

        def factory():
            calls.append(1)
            return "init"

        def setdefault(value):
            return factory() if value is None else value

        assert store.update("k", setdefault) == "init"
        assert store.update("k", setdefault) == "init"
        assert len(calls) == 1

    def test_a_failing_update_leaves_the_value(self, store):
        put(store, "n", 1)

        def boom(_value):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            store.update("n", boom)
        with pytest.raises(RuntimeError):
            store.update("absent", boom)
        assert contents(store) == {"n": 1}
