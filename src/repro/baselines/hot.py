"""The *Hot* baseline (paper §6.2): most-popular videos, in real time.

"A simple but powerful method, where the computation is in real-time."
Popularity decays exponentially so the list tracks what is hot *now*; the
user's own watched videos are excluded from their list.

Over a recommender's ``state=`` the counts (hot table ``"__all__"``) join
its checkpoints and the watched sets are its own histories, which the
recommender records: the fallback then only counts.
"""

from __future__ import annotations

from ..clock import SECONDS_PER_DAY, Clock, SystemClock
from ..core.actions import is_engagement
from ..core.demographic import HotVideoTracker
from ..core.history import UserHistoryStore
from ..core.state import ModelState
from ..data.schema import UserAction

_GLOBAL = "__all__"
#: Videos the decayed popularity tracker keeps scores for.
MAX_TRACKED = 1000


class HotRecommender:
    """Real-time decayed global popularity."""

    def __init__(
        self,
        half_life: float = SECONDS_PER_DAY,
        clock: Clock | None = None,
        exclude_watched: bool = True,
        state: ModelState | None = None,
    ) -> None:
        self.clock = clock or SystemClock()
        self._owns_history = state is None
        state = state if state is not None else ModelState()
        self.tracker = HotVideoTracker(
            half_life, MAX_TRACKED, clock=self.clock, state=state
        )
        self.history = UserHistoryStore(state)
        self.exclude_watched = exclude_watched

    def observe(self, action: UserAction) -> None:
        if not is_engagement(action):
            return
        self.tracker.record(
            _GLOBAL, action.video_id, weight=1.0, now=action.timestamp
        )
        if self._owns_history:
            self.history.record(action)

    def recommend_ids(
        self,
        user_id: str,
        current_video: str | None = None,
        n: int | None = None,
        now: float | None = None,
    ) -> list[str]:
        top_n = n if n is not None else 10
        timestamp = self.clock.now() if now is None else now
        exclude: set[str] = set()
        if self.exclude_watched:
            exclude = self.history.watched(user_id)
        if current_video is not None:
            exclude.add(current_video)
        # Over-fetch to survive the exclusion filter.
        ranked = self.tracker.hot(_GLOBAL, top_n + len(exclude), now=timestamp)
        picks = [vid for vid, _ in ranked if vid not in exclude]
        return picks[:top_n]
