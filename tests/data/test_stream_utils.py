"""Tests for stream cleaning, splitting and replay."""

import math

import numpy as np
import pytest

from repro.clock import SECONDS_PER_DAY
from repro.data import (
    ActionType,
    UserAction,
    day_of,
    filter_active,
    replay,
    split_by_day,
)
from repro.core import actions
from repro.data.stream import ENGAGEMENT_ACTIONS, is_engagement
from repro.errors import DataError


def _action(ts, user="u", video="v", action=ActionType.CLICK):
    return UserAction(ts, user, video, action)


class TestSortAndReplay:
    def test_replay_yields_in_order(self):
        actions = [_action(3.0), _action(1.0)]
        assert [a.timestamp for a in replay(actions)] == [1.0, 3.0]


class TestDayOf:
    def test_day_boundaries(self):
        assert day_of(_action(0.0)) == 0
        assert day_of(_action(SECONDS_PER_DAY - 0.001)) == 0
        assert day_of(_action(SECONDS_PER_DAY)) == 1
        assert day_of(_action(6.5 * SECONDS_PER_DAY)) == 6


class TestSplitByDay:
    def test_chronological_partition(self):
        actions = [
            _action(0.5 * SECONDS_PER_DAY),
            _action(5.5 * SECONDS_PER_DAY),
            _action(6.5 * SECONDS_PER_DAY),
        ]
        split = split_by_day(actions, train_days=6)
        assert len(split.train) == 2
        assert len(split.test) == 1
        assert all(day_of(a) < 6 for a in split.train)
        assert all(day_of(a) >= 6 for a in split.test)

    def test_output_sorted_even_if_input_is_not(self):
        actions = [_action(2.0), _action(1.0), _action(0.5)]
        split = split_by_day(actions, train_days=1)
        assert [a.timestamp for a in split.train] == [0.5, 1.0, 2.0]

    def test_partition_matches_day_of_at_the_boundaries(self):
        edge = 6 * SECONDS_PER_DAY
        stamps = [
            math.nextafter(edge, -math.inf), edge,
            math.nextafter(edge, math.inf), -0.5, 0.0, -1e-300,
            math.nextafter(SECONDS_PER_DAY, -math.inf), 1e12,
        ]
        stamps += np.random.default_rng(3).uniform(-1e6, 1e6, 500).tolist()
        actions = [_action(ts) for ts in stamps]
        split = split_by_day(actions, train_days=6)
        assert sorted(map(id, split.train)) == sorted(
            id(a) for a in actions if day_of(a) < 6
        )
        assert sorted(map(id, split.test)) == sorted(
            id(a) for a in actions if day_of(a) >= 6
        )

    def test_invalid_train_days(self):
        with pytest.raises(DataError):
            split_by_day([], train_days=0)

    def test_test_engagements_exclude_impressions(self):
        actions = [
            UserAction(7 * SECONDS_PER_DAY, "u", "v1", ActionType.IMPRESS),
            UserAction(7 * SECONDS_PER_DAY, "u", "v2", ActionType.CLICK),
        ]
        split = split_by_day(actions, train_days=6)
        engaged = [a for a in split.test if a.action in ENGAGEMENT_ACTIONS]
        assert [a.video_id for a in engaged] == ["v2"]


class TestFilterActive:
    def test_keeps_active_users_and_videos(self):
        actions = []
        # u-active interacts 5 times with v-active
        for i in range(5):
            actions.append(_action(float(i), "u-active", "v-active"))
        # u-rare interacts once
        actions.append(_action(10.0, "u-rare", "v-active"))
        kept = filter_active(actions, min_user_actions=5, min_video_actions=5)
        users = {a.user_id for a in kept}
        assert users == {"u-active"}

    def test_cascading_removal_reaches_fixed_point(self):
        """Removing a user can push a video below threshold, and so on."""
        actions = []
        # v1 has 3 actions: 2 from u1, 1 from u2.
        actions += [_action(1.0, "u1", "v1"), _action(2.0, "u1", "v1")]
        actions += [_action(3.0, "u2", "v1")]
        # u2 has only this 1 action -> removed -> v1 drops to 2 -> removed
        kept = filter_active(actions, min_user_actions=2, min_video_actions=3)
        assert kept == []

    def test_no_filtering_with_threshold_one(self):
        actions = [_action(1.0, "a", "x"), _action(2.0, "b", "y")]
        assert len(filter_active(actions, 1, 1)) == 2

    def test_empty_input(self):
        assert filter_active([], 50, 50) == []


class TestGroupByDay:
    def test_buckets_by_day_preserving_order(self):
        from repro.data.stream import group_by_day

        actions = [
            _action(10.0, video="a"),
            _action(SECONDS_PER_DAY + 1.0, video="b"),
            _action(20.0, video="c"),
            _action(2.5 * SECONDS_PER_DAY, video="d"),
        ]
        by_day = group_by_day(actions)
        assert sorted(by_day) == [0, 1, 2]
        assert [a.video_id for a in by_day[0]] == ["a", "c"]
        assert [a.video_id for a in by_day[1]] == ["b"]
        assert [a.video_id for a in by_day[2]] == ["d"]

    def test_empty_stream(self):
        from repro.data.stream import group_by_day

        assert group_by_day([]) == {}


@pytest.mark.parametrize("kind", list(ActionType))
def test_is_engagement_agrees_with_engagement_actions(kind):
    """The identity test is the set's membership for every action type,
    and ``repro.core.actions`` re-exports the one definition."""
    action = UserAction(0.0, "u", "v", kind, view_time=1.0)
    assert is_engagement(action) == (kind in ENGAGEMENT_ACTIONS)
    assert actions.is_engagement is is_engagement
