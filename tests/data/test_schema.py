"""Tests for entities and action records."""

import dataclasses
import inspect
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

    @pytest.mark.parametrize(
        "fields",
        [
            dict(duration=float("nan")),
            dict(duration=float("inf")),
            dict(duration=float("-inf")),
            dict(publish_time=float("nan")),
            dict(publish_time=float("inf")),
            dict(video_id=""),
            dict(video_id="v\t1"),
            dict(video_id="v\n1"),
            dict(video_id="v\r1"),
        ],
        ids=[
            "nan-duration", "inf-duration", "neg-inf-duration",
            "nan-publish", "inf-publish",
            "empty-id", "tab-id", "lf-id", "cr-id",
        ],
    )
    def test_bad_values_rejected(self, fields):
        with pytest.raises(DataError):
            Video(**{**dict(video_id="v1", kind="t", duration=60.0), **fields})


class TestHandwrittenConstructors:
    """``UserAction`` and ``Video`` write their own ``__init__``; the
    dataclass contract around it is unchanged."""

    def test_signatures(self):
        assert list(inspect.signature(UserAction).parameters) == [
            "timestamp", "user_id", "video_id", "action", "view_time",
        ]
        assert list(inspect.signature(Video).parameters) == [
            "video_id", "kind", "duration", "publish_time",
        ]

    def test_positional_and_keyword_construction_agree(self):
        a = UserAction(1.5, "u", "v", ActionType.CLICK)
        b = UserAction(
            timestamp=1.5, user_id="u", video_id="v", action=ActionType.CLICK
        )
        assert (a.timestamp, a.user_id, a.video_id, a.action, a.view_time) == (
            1.5, "u", "v", ActionType.CLICK, 0.0,
        )
        assert a == b and repr(a) == repr(b)
        assert Video("v", "t", 60.0) == Video(
            video_id="v", kind="t", duration=60.0, publish_time=0.0
        )

    @pytest.mark.parametrize(
        "obj",
        [
            UserAction(1.5, "u", "v", ActionType.PLAYTIME, 3.0),
            Video("v", "t", 60.0, 5.0),
        ],
        ids=["action", "video"],
    )
    def test_frozen_slotted_and_hashable(self, obj):
        for field in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field.name, getattr(obj, field.name))
        assert not hasattr(obj, "__dict__")
        twin = dataclasses.replace(obj)
        assert twin == obj and hash(twin) == hash(obj)

    def test_action_compares_by_timestamp_only(self):
        a = UserAction(1.0, "u", "v", ActionType.CLICK)
        b = UserAction(1.0, "u2", "v2", ActionType.PLAY)
        assert a == b and hash(a) == hash(b)
        assert a < UserAction(2.0, "u", "v", ActionType.CLICK)
        assert repr(a) == (
            "UserAction(timestamp=1.0, user_id='u', video_id='v', "
            "action=<ActionType.CLICK: 'click'>, view_time=0.0)"
        )

    def test_replace_runs_the_checks(self):
        video = Video("v", "t", 60.0)
        with pytest.raises(DataError):
            dataclasses.replace(video, duration=float("nan"))
        action = UserAction(1.0, "u", "v", ActionType.CLICK)
        with pytest.raises(DataError):
            dataclasses.replace(action, user_id="")


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
