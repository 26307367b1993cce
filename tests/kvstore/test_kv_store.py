"""Tests for the single-shard in-memory KV store."""

import pytest

from repro.kvstore import InMemoryKVStore


@pytest.fixture
def store():
    return InMemoryKVStore()


class TestBasicOps:
    def test_get_missing_returns_default(self, store):
        assert store.get("nope") is None
        assert store.get("nope", 42) == 42

    def test_put_then_get(self, store):
        store.put("k", "v")
        assert store.get("k") == "v"

    def test_overwrite(self, store):
        store.put("k", 1)
        store.put("k", 2)
        assert store.get("k") == 2

    def test_delete(self, store):
        store.put("k", 1)
        assert store.delete("k") is True
        assert store.get("k") is None
        assert store.delete("k") is False

    def test_contains(self, store):
        assert "k" not in store
        store.put("k", 0)
        assert "k" in store

    def test_len(self, store):
        assert len(store) == 0
        store.put("a", 1)
        store.put("b", 2)
        assert len(store) == 2

    def test_falsy_values_are_stored(self, store):
        """0, None, empty containers are legitimate values."""
        store.put("zero", 0)
        store.put("none", None)
        assert "zero" in store
        assert store.get("zero", "sentinel") == 0
        assert "none" in store
        assert store.get("none", "sentinel") is None

    def test_tuple_keys(self, store):
        store.put(("user", "u1"), "x")
        store.put(("video", "u1"), "y")
        assert store.get(("user", "u1")) == "x"
        assert store.get(("video", "u1")) == "y"

    def test_keys_snapshot(self, store):
        store.put("a", 1)
        store.put("b", 2)
        keys = store.keys()
        store.put("c", 3)  # mutation after snapshot must not break iteration
        assert set(keys) == {"a", "b"}

    def test_items(self, store):
        store.put("a", 1)
        store.put("b", 2)
        assert dict(store.items()) == {"a": 1, "b": 2}

    def test_clear(self, store):
        store.put("a", 1)
        store.clear()
        assert len(store) == 0


class TestUpdate:
    def test_update_applies_function(self, store):
        store.put("n", 10)
        result = store.update("n", lambda x: x + 1)
        assert result == 11
        assert store.get("n") == 11

    def test_update_uses_default_when_missing(self, store):
        result = store.update("counter", lambda x: x + 1, default=0)
        assert result == 1

    def test_setdefault_inserts_once(self, store):
        calls = []

        def factory():
            calls.append(1)
            return "init"

        assert store.setdefault("k", factory) == "init"
        assert store.setdefault("k", factory) == "init"
        assert len(calls) == 1
