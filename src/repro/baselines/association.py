"""The *AR* baseline (paper §6.2): association-rule recommendation, daily
batch training.

Mines pairwise rules ``i -> j`` from per-user engagement baskets: a basket
is the set of videos one user engaged with inside one session window.  A
rule's score is its confidence ``P(j | i)``; recommendation aggregates the
confidences of rules firing from the user's recent videos, weighted by rule
support, ranking the consequents.  Like the production comparator the model
"is trained in batch mode for every day": :meth:`retrain` rebuilds the rule
set from all actions accumulated so far.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations

from ..core.actions import is_engagement
from ..core.history import UserHistoryStore
from ..data.schema import UserAction

#: Strongest rules kept per antecedent video.
MAX_RULES_PER_VIDEO = 50


class AssociationRuleRecommender:
    """Pairwise association rules over session baskets."""

    def __init__(
        self,
        min_support: int = 2,
        min_confidence: float = 0.05,
        session_gap: float = 1800.0,
        exclude_watched: bool = True,
    ) -> None:
        if min_support < 1:
            raise ValueError(f"min_support must be >= 1, got {min_support}")
        if not 0 <= min_confidence <= 1:
            raise ValueError("min_confidence must be in [0, 1]")
        self.min_support = min_support
        self.min_confidence = min_confidence
        self.session_gap = session_gap
        self.exclude_watched = exclude_watched
        self.history = UserHistoryStore()
        self._log: list[UserAction] = []
        # antecedent -> list of (consequent, confidence * support weight)
        self._rules: dict[str, list[tuple[str, float]]] = {}
        self.trained_at: float | None = None

    # ------------------------------------------------------------------
    # Ingestion: batch models just accumulate the log
    # ------------------------------------------------------------------

    def observe(self, action: UserAction) -> None:
        if not is_engagement(action):
            return
        self._log.append(action)
        self.history.record(action)

    # ------------------------------------------------------------------
    # Batch training
    # ------------------------------------------------------------------

    def _baskets(self) -> list[set[str]]:
        """Sessionise the accumulated log into engagement baskets."""
        by_user: dict[str, list[UserAction]] = defaultdict(list)
        for action in self._log:
            by_user[action.user_id].append(action)
        baskets: list[set[str]] = []
        for actions in by_user.values():
            actions.sort(key=lambda a: a.timestamp)
            current: set[str] = set()
            last_ts: float | None = None
            for action in actions:
                if last_ts is not None and action.timestamp - last_ts > self.session_gap:
                    if len(current) >= 2:
                        baskets.append(current)
                    current = set()
                current.add(action.video_id)
                last_ts = action.timestamp
            if len(current) >= 2:
                baskets.append(current)
        return baskets

    def retrain(self, now: float) -> None:
        """Mine the rule set from scratch over all accumulated actions."""
        baskets = self._baskets()
        item_count: Counter[str] = Counter()
        pair_count: Counter[tuple[str, str]] = Counter()
        for basket in baskets:
            for video in basket:
                item_count[video] += 1
            for i, j in combinations(sorted(basket), 2):
                pair_count[(i, j)] += 1

        rules: dict[str, list[tuple[str, float]]] = defaultdict(list)
        for (i, j), count in pair_count.items():
            if count < self.min_support:
                continue
            conf_ij = count / item_count[i]
            conf_ji = count / item_count[j]
            if conf_ij >= self.min_confidence:
                rules[i].append((j, conf_ij))
            if conf_ji >= self.min_confidence:
                rules[j].append((i, conf_ji))
        for antecedent in rules:
            rules[antecedent].sort(key=lambda pair: (-pair[1], pair[0]))
            del rules[antecedent][MAX_RULES_PER_VIDEO:]
        self._rules = dict(rules)
        self.trained_at = now

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def recommend_ids(
        self,
        user_id: str,
        current_video: str | None = None,
        n: int | None = None,
        now: float | None = None,
    ) -> list[str]:
        top_n = n if n is not None else 10
        seeds = (
            [current_video]
            if current_video is not None
            else self.history.recent(user_id, 5)
        )
        exclude: set[str] = set(seeds)
        if self.exclude_watched:
            exclude |= self.history.watched(user_id)
        scores: dict[str, float] = defaultdict(float)
        for seed in seeds:
            for consequent, confidence in self._rules.get(seed, ()):
                if consequent not in exclude:
                    scores[consequent] += confidence
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [video_id for video_id, _ in ranked[:top_n]]
