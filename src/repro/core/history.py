"""Per-user behaviour history (the ``UserHistory`` bolt's state, §5.1).

Records which videos each user recently engaged with.  Histories feed two
consumers: the pair generator (new video x recent history = candidate
similar pairs) and seed selection for the "Guess You Like" scenario where
the user is not currently watching anything (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.schema import UserAction
from ..data.stream import ENGAGEMENT_ACTIONS
from ..kvstore import InMemoryKVStore, KVStore, Namespace


@dataclass(frozen=True, slots=True)
class HistorySnapshot:
    """One consistent read of a user's history.

    ``recent`` is newest-first;  ``watched`` is the same videos as a set.
    Serving reads both per request — taking them from one store get keeps
    them mutually consistent and halves the read traffic.
    """

    recent: list[str]
    watched: frozenset[str]
    last_active: float | None


class UserHistoryStore:
    """Bounded, deduplicated, most-recent-first per-user video history."""

    def __init__(
        self, store: KVStore | None = None, max_items: int = 100
    ) -> None:
        if max_items < 1:
            raise ValueError(f"max_items must be >= 1, got {max_items}")
        backing = store if store is not None else InMemoryKVStore()
        self._store = Namespace(backing, "history")
        self.max_items = max_items

    def record(self, action: UserAction) -> bool:
        """Fold one action into its user's history.

        Only engagement actions count (impressions are displays, not
        interest).  Returns ``True`` if the history changed.
        """
        if action.action not in ENGAGEMENT_ACTIONS:
            return False
        self.add(action.user_id, action.video_id, action.timestamp)
        return True

    def add(self, user_id: str, video_id: str, timestamp: float) -> None:
        """Push ``video_id`` to the front of ``user_id``'s history."""

        def _push(entries: list[tuple[str, float]]) -> list[tuple[str, float]]:
            kept = [(v, t) for v, t in entries if v != video_id]
            kept.insert(0, (video_id, timestamp))
            return kept[: self.max_items]

        self._store.update(user_id, _push, default=[])

    def recent(self, user_id: str, k: int | None = None) -> list[str]:
        """The user's most recent distinct videos, newest first."""
        entries = self._store.get(user_id, [])
        selected = entries if k is None else entries[:k]
        return [video_id for video_id, _ in selected]

    def watched(self, user_id: str) -> set[str]:
        """All videos currently in the user's (bounded) history."""
        return {video_id for video_id, _ in self._store.get(user_id, [])}

    def snapshot(self, user_id: str, k: int | None = None) -> HistorySnapshot:
        """Recent list, watched set and last-active from a single get."""
        entries = self._store.get(user_id, [])
        selected = entries if k is None else entries[:k]
        return HistorySnapshot(
            recent=[video_id for video_id, _ in selected],
            watched=frozenset(video_id for video_id, _ in entries),
            last_active=entries[0][1] if entries else None,
        )

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._store

    def __len__(self) -> int:
        return len(self._store)
