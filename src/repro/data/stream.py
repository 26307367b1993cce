"""Action-stream utilities: cleaning, day splits, replay iteration.

The paper's offline protocol (§6.1) collects one week of data, keeps "users
who have more than 50 actions and videos with more than 50 related actions",
trains on the first six days and tests on the last.  These helpers implement
exactly that pipeline over any ``list[UserAction]``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from ..clock import SECONDS_PER_DAY
from ..errors import DataError
from .schema import ActionType, UserAction

#: Action types that indicate positive engagement (w > 0); impressions are
#: excluded — they are displays, not evidence (§3.2).
ENGAGEMENT_ACTIONS = frozenset(
    {
        ActionType.CLICK,
        ActionType.PLAY,
        ActionType.PLAYTIME,
        ActionType.COMMENT,
        ActionType.LIKE,
        ActionType.SHARE,
    }
)


def is_engagement(action: UserAction) -> bool:
    """Whether ``action`` is positive engagement: its type is in
    :data:`ENGAGEMENT_ACTIONS`, which holds every type but an impression.
    One identity test per action, where a probe of that set hashes the
    member through the Python-level ``Enum.__hash__``."""
    return action.action is not ActionType.IMPRESS


#: Sort key of replay order.  ``UserAction`` compares by ``timestamp``
#: alone, so this gives the same stable order as its ``__lt__`` without a
#: Python-level comparison call per pair.
_BY_TIME = attrgetter("timestamp")


def filter_active(
    actions: Sequence[UserAction],
    min_user_actions: int = 50,
    min_video_actions: int = 50,
    max_rounds: int = 10,
) -> list[UserAction]:
    """Apply the paper's cleaning rule.

    Iterates to a fixed point (removing a user can push a video below its
    threshold and vice versa), capped at ``max_rounds`` rounds.  Counts all
    action types, matching the paper's "more than 50 actions" phrasing.
    """
    kept = list(actions)
    for _ in range(max_rounds):
        user_counts = Counter(a.user_id for a in kept)
        video_counts = Counter(a.video_id for a in kept)
        filtered = [
            a
            for a in kept
            if user_counts[a.user_id] >= min_user_actions
            and video_counts[a.video_id] >= min_video_actions
        ]
        if len(filtered) == len(kept):
            break
        kept = filtered
    return kept


def day_of(action: UserAction) -> int:
    """The zero-based day index of an action's timestamp."""
    return int(action.timestamp // SECONDS_PER_DAY)


def group_by_day(
    actions: Iterable[UserAction],
) -> dict[int, list[UserAction]]:
    """Bucket actions by zero-based day index, preserving input order.

    The experiment harness replays one day of shared organic traffic at a
    time; this is the canonical day-bucketing used by both the legacy
    A/B harness and :class:`~repro.eval.experiment.Experiment`.
    """
    by_day: dict[int, list[UserAction]] = {}
    for action in actions:
        by_day.setdefault(day_of(action), []).append(action)
    return by_day


@dataclass(frozen=True, slots=True)
class TrainTestSplit:
    """A chronological train/test partition of an action stream."""

    train: list[UserAction]
    test: list[UserAction]


def split_by_day(
    actions: Sequence[UserAction], train_days: int = 6
) -> TrainTestSplit:
    """Split chronologically: days ``[0, train_days)`` train, the rest test.

    The input need not be sorted; the output partitions are sorted.
    """
    if train_days < 1:
        raise DataError(f"train_days must be >= 1, got {train_days}")
    train: list[UserAction] = []
    test: list[UserAction] = []
    # ``day_of(a) < train_days`` exactly: a finite timestamp's floor
    # division by whole days is exact.
    boundary = train_days * SECONDS_PER_DAY
    for action in actions:
        (train if action.timestamp < boundary else test).append(action)
    train.sort(key=_BY_TIME)
    test.sort(key=_BY_TIME)
    return TrainTestSplit(train=train, test=test)


def replay(actions: Sequence[UserAction]) -> Iterator[UserAction]:
    """Iterate actions in strict time order, validating monotonicity."""
    last = float("-inf")
    for action in sorted(actions, key=_BY_TIME):
        if action.timestamp < last:  # pragma: no cover - sorted() prevents it
            raise DataError("actions out of order after sort; corrupt stream")
        last = action.timestamp
        yield action
