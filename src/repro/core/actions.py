"""Implicit-feedback action weighting (paper §3.2, Table 1, Eq. 6).

Different user actions represent different degrees of interest; the system
assigns each action a *weight* interpreted downstream as the confidence of a
binary rating.  Impressions weigh 0 (display is not evidence); clicks, plays
and social actions carry fixed weights; PlayTime actions are weighted by the
percentile view time via ``w = a + b * log10(vrate)``, with view rates below
the 0.1 floor treated like a bare Play — the paper deems those "inefficient"
signals.

``LogPlaytimeWeigher`` is the paper's choice; ``LinearPlaytimeWeigher``
implements the rejected alternative ``w = a + b * vrate`` that §3.2 reports
testing, kept for the ablation benchmark.
"""

from __future__ import annotations

import math
from typing import Mapping, Protocol

from ..config import ActionWeightConfig
from ..data.schema import ActionType, UserAction, Video
from ..data.stream import is_engagement  # noqa: F401 - re-exported
from ..errors import DataError


class ActionWeigher(Protocol):
    """Maps an action (plus its video, for durations) to a weight ``w >= 0``."""

    def weight(self, action: UserAction, video: Video | None = None) -> float:
        """Return the confidence weight ``w_ui`` of this action."""
        ...  # pragma: no cover - protocol body


def view_rate(action: UserAction, video: Video | None) -> float:
    """The view rate ``vrate = t_ui / t_i`` of a PLAYTIME action, in (0, 1].

    The paper divides viewing time by the full video length "to eliminate
    the variation on time length of videos of various types".  Watching
    beyond the nominal duration (replays) clamps to 1.
    """
    if action.action is not ActionType.PLAYTIME:
        raise DataError(f"view_rate is only defined for PLAYTIME, got {action.action}")
    if video is None:
        raise DataError(
            f"PLAYTIME weighting needs the video duration (video {action.video_id!r})"
        )
    return min(1.0, action.view_time / video.duration)


class _BaseWeigher:
    """Shared fixed-weight table; subclasses define the PlayTime curve."""

    def __init__(self, config: ActionWeightConfig | None = None) -> None:
        self.config = config or ActionWeightConfig()
        # Keyed by the member's string value: a lookup hashes a str (its
        # hash cached), not the member (a Python-level ``Enum.__hash__``).
        self._fixed: Mapping[str, float] = {
            ActionType.IMPRESS.value: 0.0,  # a display is no evidence (§3.3)
            ActionType.CLICK.value: self.config.click,
            ActionType.PLAY.value: self.config.play,
            ActionType.COMMENT.value: self.config.comment,
            ActionType.LIKE.value: self.config.like,
            ActionType.SHARE.value: self.config.share,
        }

    def weight(self, action: UserAction, video: Video | None = None) -> float:
        kind = action.action
        if kind is ActionType.PLAYTIME:
            return self._playtime_weight(view_rate(action, video))
        return self._fixed[kind._value_]

    def _playtime_weight(self, vrate: float) -> float:
        raise NotImplementedError


class LogPlaytimeWeigher(_BaseWeigher):
    """Eq. 6: ``w = a + b * log10(vrate)``, floored at ``vrate = 0.1``.

    A full view scores ``a``; the floor view rate scores ``a - b`` (with the
    defaults, the ``[1.5, 2.5]`` span of Table 1).  View rates below the
    floor are "inefficient" and fall back to the Play weight.
    """

    def _playtime_weight(self, vrate: float) -> float:
        cfg = self.config
        if vrate < cfg.vrate_floor:
            return cfg.play
        return cfg.a + cfg.b * math.log10(vrate)


class LinearPlaytimeWeigher(_BaseWeigher):
    """The alternative ``w = a + b * vrate`` the paper tested and rejected.

    Scaled so that the output range matches the log weigher's
    ``[a - b, a]`` span over ``vrate`` in ``[floor, 1]``, making the two
    directly comparable in the ablation.
    """

    def _playtime_weight(self, vrate: float) -> float:
        cfg = self.config
        if vrate < cfg.vrate_floor:
            return cfg.play
        scaled = (vrate - cfg.vrate_floor) / (1.0 - cfg.vrate_floor)
        return (cfg.a - cfg.b) + cfg.b * scaled
