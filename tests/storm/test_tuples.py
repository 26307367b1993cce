"""Tests for stream tuples."""

import pickle

import pytest

from repro.storm import DEFAULT_STREAM, StreamTuple


class TestStreamTuple:
    def test_field_access(self):
        t = StreamTuple({"user": "u1", "video": "v2"})
        assert t["user"] == "u1"
        assert t["video"] == "v2"

    def test_default_stream(self):
        assert StreamTuple({"a": 1}).stream == DEFAULT_STREAM

    def test_custom_stream(self):
        assert StreamTuple({"a": 1}, stream="pairs").stream == "pairs"

    def test_missing_field_raises(self):
        t = StreamTuple({"a": 1})
        with pytest.raises(KeyError):
            t["b"]

    def test_empty_tuple_rejected(self):
        with pytest.raises(ValueError):
            StreamTuple({})

    def test_immutability(self):
        t = StreamTuple({"a": 1})
        with pytest.raises(TypeError):
            t._values["a"] = 2  # type: ignore[index]

    def test_mapping_interface(self):
        t = StreamTuple({"a": 1, "b": 2})
        assert len(t) == 2
        assert set(t) == {"a", "b"}
        assert dict(t) == {"a": 1, "b": 2}
        assert t.get("c") is None

    def test_select_projects_in_order(self):
        t = StreamTuple({"a": 1, "b": 2, "c": 3})
        assert t.select(("c", "a")) == (3, 1)

    def test_select_missing_field_raises(self):
        t = StreamTuple({"a": 1})
        with pytest.raises(KeyError):
            t.select(("a", "zz"))

    def test_equality_includes_stream(self):
        a = StreamTuple({"x": 1}, stream="s1")
        b = StreamTuple({"x": 1}, stream="s1")
        c = StreamTuple({"x": 1}, stream="s2")
        assert a == b
        assert a != c

    def test_hashable(self):
        a = StreamTuple({"x": 1})
        b = StreamTuple({"x": 1})
        assert len({a, b}) == 1

    def test_repr_mentions_fields(self):
        assert "user='u1'" in repr(StreamTuple({"user": "u1"}))

    def test_pickles_without_trace(self):
        tup = StreamTuple({"a": 1, "b": "x"}, stream="s")
        clone = pickle.loads(pickle.dumps(tup))
        assert clone == tup
        assert clone.stream == "s"
        assert not hasattr(clone, "trace")  # tuples carry data only
