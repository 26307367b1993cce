"""Demographic-based (DB) algorithm and demographic filtering (paper §5.2.1).

Users are clustered into demographic groups by their properties; each group
maintains a decayed hot-video list.  The DB results complement the MF
recommendations in two ways:

* **diversity** — a fraction of the final list is filled from the group's
  hot videos, broadening the span of recommendations without the cost of a
  transitive closure over the related-videos graph;
* **cold start** — new or inactive users, for whom MF cannot produce enough
  candidates, fall back to their demographic group's hot videos; new
  *unregistered* users get the global group's.
"""

from __future__ import annotations

from typing import Mapping

from ..clock import SECONDS_PER_DAY, Clock, SystemClock
from ..data.schema import GLOBAL_GROUP, User, UserAction
from .actions import is_engagement
from .state import ModelState


class HotVideoTracker:
    """Per-group exponentially decayed video popularity.

    Each engagement adds its weight to the video's score; scores halve
    every ``half_life`` seconds, so "hot" genuinely means *currently*
    popular.  Per-group maps are bounded at ``max_tracked`` videos by
    evicting the coldest.  The maps are ``state.hot``, ``group -> {video_id:
    (score, last_update_ts)}``; a record replaces its group's map, so a
    map :meth:`hot` walks on another thread never changes under it.
    """

    def __init__(
        self,
        half_life: float = SECONDS_PER_DAY,
        max_tracked: int = 500,
        clock: Clock | None = None,
        state: ModelState | None = None,
    ) -> None:
        if half_life <= 0:
            raise ValueError(f"half_life must be positive, got {half_life}")
        if max_tracked < 1:
            raise ValueError(f"max_tracked must be >= 1, got {max_tracked}")
        self.half_life = half_life
        self.max_tracked = max_tracked
        self.clock = clock or SystemClock()
        self._state = state if state is not None else ModelState()

    def _decayed(self, score: float, elapsed: float) -> float:
        return score * 2.0 ** (-max(0.0, elapsed) / self.half_life)

    def record(
        self, group: str, video_id: str, weight: float = 1.0, now: float | None = None
    ) -> None:
        """Add ``weight`` popularity to ``video_id`` within ``group``."""
        timestamp = self.clock.now() if now is None else now
        tables = self._state.hot
        table = dict(tables.get(group, ()))
        score, last = table.get(video_id, (0.0, timestamp))
        table[video_id] = (
            self._decayed(score, timestamp - last) + weight,
            timestamp,
        )
        if len(table) > self.max_tracked:
            coldest = min(
                table,
                key=lambda vid: self._decayed(
                    table[vid][0], timestamp - table[vid][1]
                ),
            )
            del table[coldest]
        tables[group] = table

    def hot(
        self, group: str, k: int = 10, now: float | None = None
    ) -> list[tuple[str, float]]:
        """The group's ``k`` hottest videos with decay applied at read time."""
        table = self._state.hot.get(group)
        if not table:
            return []
        current = self.clock.now() if now is None else now
        scored = [
            (video_id, self._decayed(score, current - last))
            for video_id, (score, last) in table.items()
        ]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:k]


class DemographicRecommender:
    """The DB algorithm: hot videos of the requesting user's group.

    Every engagement is recorded both in the user's own group and in the
    global group, so the global fallback (used for unregistered or unknown
    users) always has content.
    """

    def __init__(
        self,
        users: Mapping[str, User],
        tracker: HotVideoTracker | None = None,
    ) -> None:
        self.users = users
        self.tracker = tracker or HotVideoTracker()

    def group_for(self, user_id: str) -> str:
        """The demographic group of a user; global when unknown."""
        user = self.users.get(user_id)
        return user.demographic_group if user else GLOBAL_GROUP

    def record(
        self, action: UserAction, weight: float = 1.0
    ) -> None:
        """Fold one engagement into the group and global hot lists."""
        if not is_engagement(action):
            return
        group = self.group_for(action.user_id)
        self.tracker.record(group, action.video_id, weight, now=action.timestamp)
        if group != GLOBAL_GROUP:
            self.tracker.record(
                GLOBAL_GROUP, action.video_id, weight, now=action.timestamp
            )

    def recommend(
        self, user_id: str, k: int = 10, now: float | None = None
    ) -> list[str]:
        """Hot videos for the user's group, topped up from the global group."""
        group = self.group_for(user_id)
        picks = [vid for vid, _ in self.tracker.hot(group, k, now=now)]
        if len(picks) < k and group != GLOBAL_GROUP:
            for vid, _ in self.tracker.hot(GLOBAL_GROUP, k, now=now):
                if vid not in picks:
                    picks.append(vid)
                    if len(picks) == k:
                        break
        return picks[:k]

    def recommend_filtered(
        self,
        user_id: str,
        k: int = 10,
        blocked: set[str] | frozenset[str] = frozenset(),
        now: float | None = None,
    ) -> list[str]:
        """Hot videos for the user's group with ``blocked`` ids suppressed.

        One centralised definition of the paper's demographic filter so
        every caller (the recommender's merge stage in both retrieval
        modes) shares identical semantics, pinned by test: blocked videos
        still *consume ranking budget* — the list is ranked and truncated
        to ``k`` first, then blocked entries are dropped without top-up —
        exactly as if :meth:`recommend`'s output were post-filtered.
        """
        return [
            vid
            for vid in self.recommend(user_id, k, now=now)
            if vid not in blocked
        ]


def merge_recommendations(
    primary: list[str],
    demographic: list[str],
    n: int,
    demographic_fraction: float,
) -> list[str]:
    """Demographic filtering: selectively merge DB results into MF results.

    Reserves ``floor(n * demographic_fraction)`` slots for DB videos not
    already recommended (placed after the MF picks, preserving MF order at
    the top), then fills any remaining shortfall first from the rest of the
    MF list, then from the rest of the DB list.  Never returns duplicates.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= demographic_fraction <= 1:
        raise ValueError("demographic_fraction must be in [0, 1]")
    db_slots = int(n * demographic_fraction)
    mf_take = n - db_slots
    out: list[str] = []
    for video_id in primary[:mf_take]:
        if video_id not in out:
            out.append(video_id)
    for video_id in demographic:
        if len(out) >= n:
            break
        if video_id not in out:
            out.append(video_id)
    for video_id in primary[mf_take:]:
        if len(out) >= n:
            break
        if video_id not in out:
            out.append(video_id)
    return out[:n]
