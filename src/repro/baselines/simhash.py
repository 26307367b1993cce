"""The *SimHash* baseline (paper §6.2): user-based CF with SimHash
bucketing, trained offline at regular intervals.

Each user's profile is the weighted set of videos they engaged with.  A
64-bit SimHash signature (Charikar's technique, the paper's ref [4])
summarises the profile; locality-sensitive banding over the signature
buckets similar users together so neighbour search never scans the whole
user base.  Recommendation scores a video by the summed signature
similarity of the neighbours who watched it.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict

from ..core.actions import is_engagement
from ..core.history import UserHistoryStore
from ..data.schema import UserAction

SIGNATURE_BITS = 64
#: Bucket-mates a user's recommendations are drawn from.
MAX_NEIGHBORS = 50


def token_hash(token: str) -> int:
    """Stable 64-bit hash of a video id."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def simhash(weighted_tokens: dict[str, float]) -> int:
    """Charikar SimHash of a weighted token set (64 bits).

    Similar sets produce signatures with small Hamming distance.
    """
    if not weighted_tokens:
        return 0
    acc = [0.0] * SIGNATURE_BITS
    for token, weight in weighted_tokens.items():
        bits = token_hash(token)
        for position in range(SIGNATURE_BITS):
            if bits & (1 << position):
                acc[position] += weight
            else:
                acc[position] -= weight
    signature = 0
    for position, value in enumerate(acc):
        if value > 0:
            signature |= 1 << position
    return signature


def hamming_similarity(a: int, b: int) -> float:
    """``1 - hamming_distance/64`` — the SimHash similarity estimate."""
    return 1.0 - bin(a ^ b).count("1") / SIGNATURE_BITS


class SimHashCFRecommender:
    """User-based CF over SimHash LSH buckets, batch retrained."""

    def __init__(
        self,
        bands: int = 8,
        min_similarity: float = 0.55,
        exclude_watched: bool = True,
    ) -> None:
        if SIGNATURE_BITS % bands != 0:
            raise ValueError(
                f"bands must divide {SIGNATURE_BITS}, got {bands}"
            )
        self.bands = bands
        self.band_bits = SIGNATURE_BITS // bands
        self.min_similarity = min_similarity
        self.exclude_watched = exclude_watched
        self.history = UserHistoryStore()
        self._profiles: dict[str, Counter[str]] = defaultdict(Counter)
        self._signatures: dict[str, int] = {}
        self._buckets: dict[tuple[int, int], set[str]] = {}
        self.trained_at: float | None = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def observe(self, action: UserAction) -> None:
        if not is_engagement(action):
            return
        self._profiles[action.user_id][action.video_id] += 1
        self.history.record(action)

    # ------------------------------------------------------------------
    # Batch training
    # ------------------------------------------------------------------

    def _band_keys(self, signature: int) -> list[tuple[int, int]]:
        mask = (1 << self.band_bits) - 1
        return [
            (band, (signature >> (band * self.band_bits)) & mask)
            for band in range(self.bands)
        ]

    def retrain(self, now: float) -> None:
        """Recompute every user's signature and rebuild the LSH buckets."""
        self._signatures = {
            user_id: simhash(dict(profile))
            for user_id, profile in self._profiles.items()
        }
        buckets: dict[tuple[int, int], set[str]] = defaultdict(set)
        for user_id, signature in self._signatures.items():
            for key in self._band_keys(signature):
                buckets[key].add(user_id)
        self._buckets = dict(buckets)
        self.trained_at = now

    def neighbors(self, user_id: str) -> list[tuple[str, float]]:
        """Bucket-mates of ``user_id`` ranked by signature similarity."""
        signature = self._signatures.get(user_id)
        if signature is None:
            return []
        candidates: set[str] = set()
        for key in self._band_keys(signature):
            candidates |= self._buckets.get(key, set())
        candidates.discard(user_id)
        scored = [
            (other, hamming_similarity(signature, self._signatures[other]))
            for other in candidates
        ]
        scored = [
            (other, sim) for other, sim in scored if sim >= self.min_similarity
        ]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:MAX_NEIGHBORS]

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
        exclude: set[str] = set()
        if self.exclude_watched:
            exclude = set(self._profiles.get(user_id, ()))
        if current_video is not None:
            exclude.add(current_video)
        scores: dict[str, float] = defaultdict(float)
        for neighbor, similarity in self.neighbors(user_id):
            for video_id, count in self._profiles[neighbor].items():
                if video_id not in exclude:
                    scores[video_id] += similarity * count
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [video_id for video_id, _ in ranked[:top_n]]
