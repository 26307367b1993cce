"""Tests for entities and action records."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import GLOBAL_GROUP, ActionType, User, UserAction, Video
from repro.errors import DataError


class TestActionType:
    def test_parse_accepts_paper_names(self):
        assert ActionType.parse("impress") is ActionType.IMPRESS
        assert ActionType.parse("PLAY") is ActionType.PLAY
        assert ActionType.parse(" playtime ") is ActionType.PLAYTIME

    def test_parse_rejects_unknown(self):
        with pytest.raises(DataError, match="unknown action type"):
            ActionType.parse("teleport")


class TestVideo:
    def test_valid_video(self):
        v = Video(video_id="v1", kind="type_0", duration=600.0)
        assert v.kind == "type_0"

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(DataError):
            Video(video_id="v1", kind="t", duration=0.0)


class TestUserDemographics:
    def test_full_attributes(self):
        user = User("u1", gender="f", age_band="young", education="uni")
        assert user.demographic_group == "f|young|uni"

    def test_partial_attributes(self):
        assert User("u1", gender="m").demographic_group == "m"

    def test_unregistered_maps_to_global(self):
        user = User("u1", registered=False, gender="m", age_band="young")
        assert user.demographic_group == GLOBAL_GROUP

    def test_registered_without_attributes_maps_to_global(self):
        assert User("u1").demographic_group == GLOBAL_GROUP


class TestUserAction:
    def test_playtime_requires_view_time(self):
        with pytest.raises(DataError):
            UserAction(0.0, "u", "v", ActionType.PLAYTIME)

    def test_playtime_with_view_time(self):
        a = UserAction(0.0, "u", "v", ActionType.PLAYTIME, view_time=120.0)
        assert a.view_time == 120.0

    def test_negative_view_time_rejected(self):
        with pytest.raises(DataError):
            UserAction(0.0, "u", "v", ActionType.CLICK, view_time=-1.0)

    def test_ordering_by_timestamp(self):
        a = UserAction(5.0, "u", "v", ActionType.CLICK)
        b = UserAction(2.0, "u2", "v2", ActionType.PLAY)
        assert sorted([a, b]) == [b, a]


class TestLogLineRoundTrip:
    def test_round_trip(self):
        a = UserAction(1234.5, "u7", "v9", ActionType.PLAYTIME, view_time=88.25)
        parsed = UserAction.from_log_line(a.to_log_line())
        assert parsed.user_id == "u7"
        assert parsed.video_id == "v9"
        assert parsed.action is ActionType.PLAYTIME
        assert parsed.timestamp == pytest.approx(1234.5)
        assert parsed.view_time == pytest.approx(88.25)

    def test_round_trip_all_action_types(self):
        for action in ActionType:
            view = 10.0 if action is ActionType.PLAYTIME else 0.0
            a = UserAction(1.0, "u", "v", action, view_time=view)
            assert UserAction.from_log_line(a.to_log_line()).action is action

    @given(
        timestamp=st.floats(),
        user_id=st.text(),
        video_id=st.text(),
        action=st.sampled_from(ActionType),
        view_time=st.floats(),
    )
    def test_round_trip_is_exact(
        self, timestamp, user_id, video_id, action, view_time
    ):
        """Every constructible action survives its log line bit for bit, as
        a log file reads it back (universal newlines, one record per line)
        — the write-ahead log relies on it."""
        try:
            a = UserAction(timestamp, user_id, video_id, action, view_time)
        except DataError:
            return
        written = a.to_log_line() + "\n"
        records = io.StringIO(written, newline=None).read().split("\n")
        assert records[1:] == [""]
        parsed = UserAction.from_log_line(records[0])
        assert parsed == a
        # UserAction equality compares the timestamp only.
        assert (
            parsed.user_id,
            parsed.video_id,
            parsed.action,
            parsed.view_time,
        ) == (user_id, video_id, action, view_time)

    @pytest.mark.parametrize(
        "line",
        [
            "not-a-log-line",
            "1.0\tu\tv\tclick",  # too few fields
            "1.0\tu\tv\tclick\t0.0\textra",  # too many
            "abc\tu\tv\tclick\t0.0",  # bad timestamp
            "1.0\tu\tv\twarp\t0.0",  # bad action
            "1.0\t\tv\tclick\t0.0",  # empty user
            "1.0\tu\t\tclick\t0.0",  # empty video
            "1.0\tu\tv\tclick\tNaNx",  # bad view time
            "nan\tu\tv\tclick\t0.0",  # non-finite timestamp
            "1.0\tu\tv\tclick\tinf",  # non-finite view time
            "1.0\tu\rx\tv\tclick\t0.0",  # CR in an id
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(DataError):
            UserAction.from_log_line(line)
