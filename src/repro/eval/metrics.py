"""Evaluation metrics (paper §6.1): recall@N (Eq. 13) and average
percentile rank (Eq. 14), plus MAE/precision for completeness.

The paper measures top-N quality, not rating accuracy: true ratings do not
exist for implicit feedback, so MAE is inappropriate (§6.1) — it is still
provided here because the batch-MF ablations can use it on synthetic
ground truth.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def recall_at_n(
    recommended: Mapping[str, Sequence[str]],
    liked: Mapping[str, set[str]],
    n: int,
) -> float:
    """Eq. 13: mean over test users of ``|liked ∩ top-N| / N``.

    ``recommended`` maps each test user to their ordered recommendation
    list; ``liked`` maps them to the videos they engaged with in the test
    window.  Users absent from ``liked`` (no positive test actions) are
    excluded, per the equation's ``U_test``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    test_users = [u for u, videos in liked.items() if videos]
    if not test_users:
        return 0.0
    total = 0.0
    for user_id in test_users:
        top_n = list(recommended.get(user_id, ()))[:n]
        hits = sum(1 for video_id in top_n if video_id in liked[user_id])
        total += hits / n
    return total / len(test_users)


def recall_curve(
    recommended: Mapping[str, Sequence[str]],
    liked: Mapping[str, set[str]],
    max_n: int = 10,
) -> dict[int, float]:
    """recall@N for every N in ``[1, max_n]`` — one Figure 4 series."""
    return {n: recall_at_n(recommended, liked, n) for n in range(1, max_n + 1)}


def percentile_rank(position: int, length: int) -> float:
    """Percentile ranking of a list position.

    Defined as ``position / length``: the first item ranks 0 %, the last
    ``(L-1)/L``, and *absence from the list* ranks 100 % — strictly worse
    than any listed position, matching Eq. 14's convention that
    ``rank_ui = 1`` for videos not recommended.
    """
    if position < 0 or position >= length:
        raise ValueError(f"position {position} out of range for length {length}")
    return position / length


def average_rank(
    recommended: Mapping[str, Sequence[str]],
    test_ranking: Mapping[str, Sequence[str]],
) -> float:
    """Eq. 14: recommendation-weighted average test percentile rank.

    The sum runs over the ``(u, i)`` pairs of the *test* data:
    ``test_ranking[u]`` is the user's "ordered interested video list"
    (ranked by action confidence, most interesting first) and
    ``rank^t_ui`` is video ``i``'s percentile position in it.  Each pair is
    weighted by ``1 - rank_ui``, where ``rank_ui`` is the video's
    percentile position in the recommendation list — "the relative rating
    predicted by the model"; test videos the model did not recommend have
    ``rank_ui = 1`` and drop out of both sums::

        rank = sum(rank^t_ui * (1 - rank_ui)) / sum(1 - rank_ui)

    Lower is better: it means the videos the model pushed hardest sit near
    the top of what the user actually watched.  When no test video was
    recommended at all the metric is undefined; we return the worst value,
    1.0.
    """
    numerator = 0.0
    denominator = 0.0
    for user_id, test_list in test_ranking.items():
        test_videos = list(test_list)
        if not test_videos:
            continue
        rec_list = list(recommended.get(user_id, ()))
        rec_position = {vid: idx for idx, vid in enumerate(rec_list)}
        for position, video_id in enumerate(test_videos):
            if video_id not in rec_position:
                continue  # rank_ui = 1 => zero weight
            weight = 1.0 - percentile_rank(
                rec_position[video_id], len(rec_list)
            )
            if weight <= 0.0:
                continue
            true_rank = percentile_rank(position, len(test_videos))
            numerator += true_rank * weight
            denominator += weight
    return numerator / denominator if denominator else 1.0
