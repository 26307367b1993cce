"""Ground-truth and stored-state readers for tests.

They read private state on purpose: the system itself never needs a raw
similar-video entry, a user's true best videos, the list of group
models created so far, a model's user rows, the retrieval mirror's
rows or a user's stored history, or the users who have one, only tests
do.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    AnnIndex,
    GroupedRecommender,
    MFModel,
    SimilarVideoTable,
    UserHistoryStore,
)
from repro.data import SyntheticWorld


def best_videos(
    world: SyntheticWorld, user_id: str, k: int = 10, now: float | None = None
) -> list[str]:
    """Ground-truth top-``k`` videos for a user, by true affinity at ``now``."""
    u = world._user_index[user_id]
    scores = world.video_factors @ world._effective_user_factors(now)[u]
    return [world._index_to_id[j] for j in np.argsort(-scores)[:k]]


def raw_entries(
    table: SimilarVideoTable, video_id: str
) -> dict[str, tuple[float, float]]:
    """One video's stored ``{other: (raw relevance, updated_at)}`` map."""
    [row] = table._lists().rows([video_id])
    return {other: entry[:2] for other, entry in row.items()}


def created_groups(grouped: GroupedRecommender) -> list[str]:
    """Groups whose recommender exists, in creation order."""
    return list(grouped._groups)


def mirror_rows(index: AnnIndex) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The retrieval mirror's ``(ids, float32 matrix, float32 biases)``, in
    row order, without its spare capacity."""
    n = len(index)
    return list(index._ids[:n]), index._matrix[:n], index._bias[:n]


def stored_rows(
    model: MFModel, kind: str
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``(ids, vectors, biases)`` of one kind (``"user"`` or ``"video"``),
    ids sorted — :meth:`MFModel.video_rows` for either kind."""
    return model._arena(kind).sorted_rows(np.float64)


def history_entries(
    history: UserHistoryStore, user_id: str
) -> list[tuple[str, float]]:
    """One user's stored ``[(video, timestamp), ...]`` history, newest first."""
    return history._state.histories.get(user_id, [])


def history_users(history: UserHistoryStore) -> list[str]:
    """Users with a stored history, in the order they first engaged."""
    return list(history._state.histories)
