"""Candidate video selection (paper §4.1).

Scoring the whole catalogue per request is "a disaster" at Tencent scale;
instead, candidates are gathered by expanding the similar-video lists of a
handful of *seed* videos — the video currently being watched, or the user's
recent history.  The selector deduplicates across seeds (keeping the best
supporting similarity), filters out the seeds themselves and already-watched
videos, and caps the pool size so the ranking stage stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import RecommendConfig
from .simtable import SimilarVideoTable


@dataclass(frozen=True, slots=True)
class Candidate:
    """A candidate video with its best supporting seed similarity."""

    video_id: str
    seed_id: str
    similarity: float


class CandidateSelector:
    """Expands seed videos into a bounded, deduplicated candidate pool."""

    def __init__(
        self,
        table: SimilarVideoTable,
        config: RecommendConfig | None = None,
    ) -> None:
        self.table = table
        self.config = config or RecommendConfig()

    def select(
        self,
        seeds: list[str],
        exclude: set[str] | None = None,
        now: float | None = None,
    ) -> list[Candidate]:
        """Gather candidates for the given seeds, best-similarity first.

        ``exclude`` is the watched set (plus anything else the caller wants
        suppressed); seeds are always excluded — recommending the video the
        user is currently watching is useless.
        """
        cfg = self.config
        excluded = set(exclude or ())
        excluded.update(seeds)
        best: dict[str, Candidate] = {}
        # Dedup before the cap: a video repeated in the user's history must
        # neither waste a seed slot nor be fetched twice from the lists.
        used = list(dict.fromkeys(seeds))[: cfg.max_seeds]
        for seed, ranked_list in zip(
            used, self.table.neighbors_many(used, now=now)
        ):
            for video_id, similarity in ranked_list:
                if video_id in excluded:
                    continue
                current = best.get(video_id)
                if current is None or similarity > current.similarity:
                    best[video_id] = Candidate(video_id, seed, similarity)
        ranked = sorted(
            best.values(), key=lambda c: (-c.similarity, c.video_id)
        )
        return ranked[: cfg.max_candidates]
