"""Tests for namespaced KV store views."""

import pytest

from repro.kvstore import InMemoryKVStore, Namespace


@pytest.fixture
def backing():
    return InMemoryKVStore()


class TestIsolation:
    def test_same_key_different_namespaces(self, backing):
        users = Namespace(backing, "user")
        videos = Namespace(backing, "video")
        users.put("id1", "a user")
        videos.put("id1", "a video")
        assert users.get("id1") == "a user"
        assert videos.get("id1") == "a video"

    def test_delete_scoped(self, backing):
        a = Namespace(backing, "a")
        b = Namespace(backing, "b")
        a.put("k", 1)
        b.put("k", 2)
        a.delete("k")
        assert a.get("k") is None
        assert b.get("k") == 2

    def test_keys_only_own_namespace(self, backing):
        a = Namespace(backing, "a")
        b = Namespace(backing, "b")
        a.put("x", 1)
        a.put("y", 2)
        b.put("z", 3)
        assert set(a.keys()) == {"x", "y"}
        assert set(b.keys()) == {"z"}

    def test_len_scoped(self, backing):
        a = Namespace(backing, "a")
        Namespace(backing, "b").put("k", 0)
        a.put("k", 0)
        assert len(a) == 1

    def test_empty_prefix_rejected(self, backing):
        with pytest.raises(ValueError):
            Namespace(backing, "")

    def test_raw_backing_keys_are_wrapped(self, backing):
        Namespace(backing, "ns").put("k", 1)
        assert ("ns", "k") in backing


class TestDelegatedOps:
    def test_update_and_setdefault(self, backing):
        ns = Namespace(backing, "ns")
        ns.update("c", lambda x: x + 1, default=0)
        ns.update("c", lambda x: x + 1, default=0)
        assert ns.get("c") == 2
        assert ns.setdefault("c", lambda: 99) == 2

    def test_contains(self, backing):
        ns = Namespace(backing, "ns")
        assert "k" not in ns
        ns.put("k", None)
        assert "k" in ns

    def test_nested_namespaces_do_not_collide(self, backing):
        outer = Namespace(backing, "outer")
        inner = Namespace(outer, "inner")
        outer.put("k", "outer-value")
        inner.put("k", "inner-value")
        assert outer.get("k") == "outer-value"
        assert inner.get("k") == "inner-value"
