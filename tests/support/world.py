"""Ground-truth and stored-state readers for tests.

They read private state on purpose: the system itself never needs a raw
similar-video entry or a user's true best videos, only tests do.
"""

from __future__ import annotations

import numpy as np

from repro.core import SimilarVideoTable
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
    return dict(table._table.get(video_id, {}))
