"""Tests for the user-history store."""

import pytest

from repro.core import UserHistoryStore
from repro.data import ActionType, UserAction


def _engagement(user, video, ts):
    return UserAction(ts, user, video, ActionType.CLICK)


class TestRecord:
    def test_engagements_recorded(self):
        history = UserHistoryStore()
        assert history.record(_engagement("u", "v1", 1.0))
        assert history.recent("u") == ["v1"]

    def test_impressions_not_recorded(self):
        history = UserHistoryStore()
        recorded = history.record(
            UserAction(1.0, "u", "v1", ActionType.IMPRESS)
        )
        assert not recorded
        assert history.recent("u") == []

    def test_most_recent_first(self):
        history = UserHistoryStore()
        for i, video in enumerate(["a", "b", "c"]):
            history.record(_engagement("u", video, float(i)))
        assert history.recent("u") == ["c", "b", "a"]

    def test_re_engagement_moves_to_front(self):
        history = UserHistoryStore()
        for i, video in enumerate(["a", "b", "a"]):
            history.record(_engagement("u", video, float(i)))
        assert history.recent("u") == ["a", "b"]

    def test_bounded(self):
        history = UserHistoryStore(max_items=3)
        for i in range(10):
            history.record(_engagement("u", f"v{i}", float(i)))
        assert history.recent("u") == ["v9", "v8", "v7"]

    def test_invalid_max_items(self):
        with pytest.raises(ValueError):
            UserHistoryStore(max_items=0)


class TestQueries:
    def test_recent_with_k(self):
        history = UserHistoryStore()
        for i in range(5):
            history.record(_engagement("u", f"v{i}", float(i)))
        assert history.recent("u", k=2) == ["v4", "v3"]

    def test_watched_set(self):
        history = UserHistoryStore()
        history.record(_engagement("u", "a", 1.0))
        history.record(_engagement("u", "b", 2.0))
        assert history.watched("u") == {"a", "b"}

    def test_unknown_user(self):
        history = UserHistoryStore()
        assert history.recent("ghost") == []
        assert history.watched("ghost") == set()
        assert history.snapshot("ghost").last_active is None
        assert "ghost" not in history

    def test_last_active(self):
        history = UserHistoryStore()
        history.record(_engagement("u", "a", 5.0))
        history.record(_engagement("u", "b", 9.0))
        assert history.snapshot("u").last_active == 9.0

    def test_len_counts_users(self):
        history = UserHistoryStore()
        history.record(_engagement("u1", "a", 1.0))
        history.record(_engagement("u2", "a", 1.0))
        assert len(history) == 2

    def test_users_isolated(self):
        history = UserHistoryStore()
        history.record(_engagement("u1", "a", 1.0))
        history.record(_engagement("u2", "b", 1.0))
        assert history.recent("u1") == ["a"]
        assert history.recent("u2") == ["b"]
