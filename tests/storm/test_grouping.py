"""Tests for stream groupings — especially the single-writer property of
fields grouping that the paper's §5.1 correctness argument rests on."""

from collections import Counter

from repro.storm import FieldsGrouping, StreamTuple


def _tup(**fields):
    return StreamTuple(fields)


class TestFieldsGrouping:
    def test_same_key_same_worker(self):
        g = FieldsGrouping(["user"])
        workers = {
            g.select(_tup(user="u1", video=f"v{i}"), 8)[0] for i in range(50)
        }
        assert len(workers) == 1

    def test_selection_is_stable_across_instances(self):
        """Two grouping objects with the same fields route identically —
        routing must not depend on instance state."""
        g1 = FieldsGrouping(["user"])
        g2 = FieldsGrouping(["user"])
        for i in range(30):
            t = _tup(user=f"u{i}")
            assert g1.select(t, 8) == g2.select(t, 8)

    def test_different_keys_spread(self):
        g = FieldsGrouping(["user"])
        counts = Counter(
            g.select(_tup(user=f"u{i}"), 8)[0] for i in range(800)
        )
        assert len(counts) == 8
        assert min(counts.values()) > 40

    def test_multi_field_key(self):
        g = FieldsGrouping(["kind", "key"])
        a = g.select(_tup(kind="user", key="x1"), 16)
        b = g.select(_tup(kind="video", key="x1"), 16)
        # same 'key' but different 'kind' may route differently; the same
        # combination always routes identically
        assert g.select(_tup(kind="user", key="x1"), 16) == a
        assert g.select(_tup(kind="video", key="x1"), 16) == b

    def test_single_delivery(self):
        g = FieldsGrouping(["user"])
        assert len(g.select(_tup(user="u"), 4)) == 1

    def test_empty_fields_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            FieldsGrouping([])

    def test_describe_mentions_fields(self):
        assert "user" in FieldsGrouping(["user"]).describe()

