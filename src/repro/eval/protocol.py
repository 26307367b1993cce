"""The paper's offline evaluation protocol (§6.1).

Collect a week of actions, clean, train on the first six days (online,
single pass — the model under test is a *streaming* learner), then for each
user with positive actions on the seventh day generate a top-N list and
score it with recall@N and the average-rank metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.actions import ActionWeigher, LogPlaytimeWeigher, is_engagement
from ..data.schema import UserAction, Video
from .metrics import average_rank, recall_curve

#: Minimum action confidence for a test action to count as "liked" in
#: Eq. 13.  With the default weight table this admits real watches
#: (PlayTime above ~30 % view rate) and social actions, but not bare
#: clicks or abandoned plays — "liked" is stronger than "touched".
DEFAULT_LIKED_WEIGHT = 2.0


def liked_videos_by_user(
    test_actions: Sequence[UserAction],
    videos: Mapping[str, Video] | None = None,
    weigher: ActionWeigher | None = None,
    min_weight: float = DEFAULT_LIKED_WEIGHT,
) -> dict[str, set[str]]:
    """The ``i_u`` sets of Eq. 13: videos each user *liked* in the test data.

    An action counts when its confidence weight reaches ``min_weight``;
    actions that cannot be weighted (unknown video duration) fall back to
    weight 1 and therefore do not qualify under the default threshold.
    """
    videos = videos or {}
    weigher = weigher or LogPlaytimeWeigher()
    out: dict[str, set[str]] = {}
    for action in test_actions:
        if not is_engagement(action):
            continue
        try:
            weight = weigher.weight(action, videos.get(action.video_id))
        except Exception:
            weight = 1.0
        if weight >= min_weight:
            out.setdefault(action.user_id, set()).add(action.video_id)
    return out


@dataclass(frozen=True, slots=True)
class EvalResult:
    """Scores of one model under the offline protocol."""

    recall_at: Mapping[int, float]
    avg_rank: float
    n_test_users: int
    recommendations: Mapping[str, list[str]] = field(default_factory=dict)

    def recall(self, n: int = 10) -> float:
        return self.recall_at.get(n, 0.0)

    def summary(self) -> dict[str, float]:
        return {
            "recall@1": round(self.recall(1), 4),
            "recall@5": round(self.recall(5), 4),
            "recall@10": round(self.recall(10), 4),
            "avg_rank": round(self.avg_rank, 4),
            "test_users": self.n_test_users,
        }


def interest_lists_by_user(
    test_actions: Sequence[UserAction],
    videos: Mapping[str, Video] | None = None,
    weigher: ActionWeigher | None = None,
) -> dict[str, list[str]]:
    """Each test user's "ordered interested video list" (§6.1).

    Videos are ranked by the maximum confidence of the user's test actions
    on them — exactly the ordering Eq. 14's ``rank^t`` is defined over.
    Actions whose weight cannot be computed (PLAYTIME with unknown
    duration) fall back to weight 1.
    """
    videos = videos or {}
    weigher = weigher or LogPlaytimeWeigher()
    confidence: dict[str, dict[str, float]] = {}
    for action in test_actions:
        if not is_engagement(action):
            continue
        try:
            weight = weigher.weight(action, videos.get(action.video_id))
        except Exception:
            weight = 1.0
        per_user = confidence.setdefault(action.user_id, {})
        per_user[action.video_id] = max(
            per_user.get(action.video_id, 0.0), weight
        )
    return {
        user_id: [
            video_id
            for video_id, _ in sorted(
                weights.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        for user_id, weights in confidence.items()
    }


def evaluate(
    recommender,
    train: Sequence[UserAction],
    test: Sequence[UserAction],
    videos: Mapping[str, Video] | None = None,
    max_n: int = 10,
    observe_train: bool = True,
    now: float | None = None,
    min_liked_weight: float = DEFAULT_LIKED_WEIGHT,
    liked: Mapping[str, set[str]] | None = None,
) -> EvalResult:
    """Run the full offline protocol for one recommender.

    ``recommender`` needs ``observe(action)`` and
    ``recommend_ids(user_id, n=..., now=...)``.  Set
    ``observe_train=False`` when the model was already trained (e.g. when
    comparing several request strategies on one trained model).  ``now``
    defaults to the first test timestamp (recommendations are generated
    "at the start of day seven").  ``min_liked_weight`` controls which test
    actions count as "liked" (see :func:`liked_videos_by_user`); pass
    ``liked`` explicitly to override — e.g. the synthetic world's
    ground-truth :meth:`~repro.data.synthetic.SyntheticWorld.genuinely_liked`
    sets.
    """
    if observe_train:
        for action in train:
            recommender.observe(action)

    if liked is None:
        liked = liked_videos_by_user(
            test, videos=videos, min_weight=min_liked_weight
        )
    if now is None:
        if test:
            now = min(a.timestamp for a in test)
        elif train:
            now = max(a.timestamp for a in train)
        else:
            now = 0.0

    recommendations = {
        user_id: recommender.recommend_ids(user_id, n=max_n, now=now)
        for user_id in sorted(liked)
    }
    interest = interest_lists_by_user(test, videos=videos)
    return EvalResult(
        recall_at=recall_curve(recommendations, liked, max_n=max_n),
        avg_rank=average_rank(recommendations, interest),
        n_test_users=len(liked),
        recommendations=recommendations,
    )
