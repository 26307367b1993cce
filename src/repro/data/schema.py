"""Entities and action records shared across the whole system.

The paper's input is a stream of ``<user, video, action>`` tuples carrying
an action type and, for PlayTime, the viewed duration (§3.2, §5.1).  Videos
have a fine-grained type used by the type-similarity factor (§4.2.2); users
carry demographic properties (gender, age, education) used to cluster them
into demographic groups (§5.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import isfinite

from ..errors import DataError


class ActionType(enum.Enum):
    """User behaviour types of Table 1 (plus the stronger social actions
    the paper mentions in §3.2: comment/like/share)."""

    IMPRESS = "impress"
    CLICK = "click"
    PLAY = "play"
    PLAYTIME = "playtime"
    COMMENT = "comment"
    LIKE = "like"
    SHARE = "share"

    @classmethod
    def parse(cls, token: str) -> "ActionType":
        try:
            return cls(token.strip().lower())
        except ValueError as exc:
            raise DataError(f"unknown action type: {token!r}") from exc


@dataclass(frozen=True, slots=True, init=False)
class Video:
    """A catalogue item.

    ``kind`` is the fine-grained type/category the type-similarity factor
    compares; ``duration`` is the full play length in seconds, the
    denominator of the view rate in Eq. 6, so it must be finite and
    positive (a NaN would turn every view rate of the video into NaN).
    """

    video_id: str
    kind: str
    duration: float
    publish_time: float = 0.0

    # Handwritten, like ``UserAction``'s; the dataclass still supplies
    # eq, hash, repr and frozen-ness.
    def __init__(
        self,
        video_id: str,
        kind: str,
        duration: float,
        publish_time: float = 0.0,
    ) -> None:
        if (
            not video_id
            or "\t" in video_id
            or "\n" in video_id
            or "\r" in video_id
        ):
            raise DataError(
                "video id must be non-empty and free of tab, CR and LF: "
                f"{video_id!r}"
            )
        if not (isfinite(duration) and isfinite(publish_time)):
            raise DataError(
                f"video {video_id!r}: times must be finite "
                f"(duration={duration!r}, publish_time={publish_time!r})"
            )
        if duration <= 0:
            raise DataError(
                f"video {video_id!r}: duration must be positive"
            )
        _set = object.__setattr__
        _set(self, "video_id", video_id)
        _set(self, "kind", kind)
        _set(self, "duration", duration)
        _set(self, "publish_time", publish_time)


@dataclass(frozen=True, slots=True)
class User:
    """A site visitor, registered or not.

    Unregistered users (a large share of traffic, per the introduction)
    carry no demographic attributes; the demographic optimizations fall
    back to the global group for them (§5.2.1).
    """

    user_id: str
    registered: bool = True
    gender: str | None = None
    age_band: str | None = None
    education: str | None = None

    @property
    def demographic_group(self) -> str:
        """The demographic cluster label for this user.

        The paper clusters users "according to their properties such as
        gender, age and education" into dozens of groups; we use the
        cross-product of the known attributes.  Users with no attributes
        (unregistered) map to the ``"global"`` group.
        """
        if not self.registered:
            return GLOBAL_GROUP
        parts = [p for p in (self.gender, self.age_band, self.education) if p]
        return "|".join(parts) if parts else GLOBAL_GROUP


#: Group label for users whose demographic attributes are unknown.
GLOBAL_GROUP = "global"


@dataclass(frozen=True, slots=True, order=True, init=False)
class UserAction:
    """One implicit-feedback event.

    Orderable by ``timestamp`` first so a list of actions sorts into replay
    order.  ``view_time`` is only meaningful for PLAYTIME actions and is the
    number of seconds actually watched.

    Every constructible action survives :meth:`to_log_line` as a log file
    reads it back: ids are non-empty and hold no tab (the field separator),
    LF or CR (a universal-newline read turns CR into a record break), and
    both times are finite.  ``/ingest`` bodies and log lines are checked
    here, so one bad action cannot make a write-ahead log unreadable.
    """

    timestamp: float
    user_id: str = field(compare=False)
    video_id: str = field(compare=False)
    action: ActionType = field(compare=False)
    view_time: float = field(default=0.0, compare=False)

    # Handwritten: the synthetic generator builds one per event, and the
    # generated ``__init__`` plus a ``__post_init__`` call cost about
    # twice as much.  The dataclass still supplies eq, order, hash, repr
    # and frozen-ness.
    def __init__(
        self,
        timestamp: float,
        user_id: str,
        video_id: str,
        action: ActionType,
        view_time: float = 0.0,
    ) -> None:
        if (
            not user_id
            or not video_id
            or "\t" in user_id
            or "\n" in user_id
            or "\r" in user_id
            or "\t" in video_id
            or "\n" in video_id
            or "\r" in video_id
        ):
            raise DataError(
                "ids must be non-empty and free of tab, CR and LF "
                f"(user={user_id!r}, video={video_id!r})"
            )
        if not (isfinite(timestamp) and isfinite(view_time)):
            raise DataError(
                f"times must be finite (timestamp={timestamp!r}, "
                f"view_time={view_time!r})"
            )
        if action is ActionType.PLAYTIME and view_time <= 0:
            raise DataError(
                "PLAYTIME actions must carry a positive view_time "
                f"(user={user_id!r}, video={video_id!r})"
            )
        if view_time < 0:
            raise DataError("view_time cannot be negative")
        _set = object.__setattr__
        _set(self, "timestamp", timestamp)
        _set(self, "user_id", user_id)
        _set(self, "video_id", video_id)
        _set(self, "action", action)
        _set(self, "view_time", view_time)

    # -- log-line (de)serialisation, used by the ActionSpout ---------------

    def to_log_line(self) -> str:
        """Render as the tab-separated raw-log format the spout parses.

        Times use ``repr(float)``, the shortest string that parses back to
        the same float, so a WAL replay feeds Eq. 8 the exact timestamps
        live ingest saw.
        """
        return "\t".join(
            (
                repr(float(self.timestamp)),
                self.user_id,
                self.video_id,
                self.action.value,
                repr(float(self.view_time)),
            )
        )

    @classmethod
    def from_log_line(cls, line: str) -> "UserAction":
        """Parse a raw log line; raise :class:`DataError` on malformed input."""
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 5:
            raise DataError(f"malformed action log line: {line!r}")
        ts, user_id, video_id, action_token, view_time = parts
        try:
            timestamp = float(ts)
            viewed = float(view_time)
        except ValueError as exc:
            raise DataError(f"non-numeric field in line: {line!r}") from exc
        return cls(
            timestamp=timestamp,
            user_id=user_id,
            video_id=video_id,
            action=ActionType.parse(action_token),
            view_time=viewed,
        )
