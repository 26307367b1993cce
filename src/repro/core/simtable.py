"""Similar-video tables (paper §4.2).

For every video the system keeps "a top-N similar video list" in the KV
store — the key data structure that makes real-time top-N generation
tractable: instead of scoring millions of videos per request, candidates
come from the precomputed lists of a few seed videos.

Entries store the *raw* fused relevance of Eq. 12 at its update time plus
that timestamp; the time damping of Eq. 11 is applied at read time, so a
pair's effective similarity decays continuously until a new supporting user
action refreshes it.

Pair discovery follows the paper's topology (§5.1): when a user engages with
a new video, it is paired with the videos already in that user's recent
history (``GetItemPairs``), each pair is scored (``ItemPairSim``), and the
per-video lists are updated (``ResultStorage``).
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping, Sequence

from ..clock import Clock, SystemClock
from ..config import SimilarityConfig
from ..data.schema import Video
from ..kvstore import InMemoryKVStore, KVStore, Namespace
from .mf import MFModel
from .similarity import SimilarityScorer


#: Most history partners one engagement is paired with (§5.1) — the one
#: bound on pair work per action, shared by :func:`generate_pairs` and the
#: topology's ``GetItemPairs`` bolt.
MAX_PAIRS = 20


def generate_pairs(
    new_video: str, recent_videos: list[str], limit: int = MAX_PAIRS
) -> list[tuple[str, str]]:
    """Video pairs triggered by an engagement with ``new_video``.

    Pairs the new video with up to ``limit`` of the user's most recent
    *other* videos — the co-occurrence signal the similar-video tables are
    built from.
    """
    pairs = []
    for other in recent_videos:
        if other == new_video:
            continue
        pairs.append((new_video, other))
        if len(pairs) >= limit:
            break
    return pairs


def _eviction_key(raw: float, timestamp: float, xi: float) -> tuple[float, float]:
    """A time-invariant total order over damped relevances.

    At any common read time ``now`` the damped value of an entry is
    ``raw * 2^(-(now - t)/xi)``; comparing two entries, ``now`` cancels,
    so ``log2(|raw|) + t/xi`` orders same-sign entries without ever
    materialising ``2^(t/xi)`` (which overflows for realistic epoch
    timestamps).  The leading sign component keeps negatives < zero <
    positives.  Ascending key == ascending damped value, so a min-heap of
    keys pops the weakest entry — and keys never go stale as the clock
    advances, which is what lets the heap live across updates.

    The one divergence from :meth:`SimilarityScorer.damped` is its
    ``max(0, elapsed)`` clamp: an entry stamped *later* than the eviction
    time keeps growing here instead of flattening.  Entries from the
    future only arise from out-of-order replays, and preferring the newest
    of them is an acceptable tie-break.
    """
    if raw > 0.0:
        return (1.0, math.log2(raw) + timestamp / xi)
    if raw < 0.0:
        return (-1.0, -(math.log2(-raw) + timestamp / xi))
    return (0.0, 0.0)


class SimilarVideoTable:
    """Incrementally maintained top-K similar-video lists.

    The table needs the video catalogue (for type similarity) and the MF
    model (for latent vectors).  Pairs whose videos have no learned vector
    yet are ignored — they cannot be scored.
    """

    def __init__(
        self,
        videos: Mapping[str, Video],
        model: MFModel,
        config: SimilarityConfig | None = None,
        clock: Clock | None = None,
        store: KVStore | None = None,
    ) -> None:
        self.videos = videos
        self.model = model
        self.config = config or SimilarityConfig()
        self.scorer = SimilarityScorer(self.config)
        self.clock = clock or SystemClock()
        backing = store if store is not None else InMemoryKVStore()
        # Per video: dict other_id -> (raw_relevance, updated_at).
        self._table = Namespace(backing, "simtable")
        # Per video: min-heap of (eviction key, other_id) mirroring the
        # stored entries, so eviction pops the weakest in O(log K) instead
        # of scanning all K.  Keys are time-invariant (see _eviction_key)
        # so the heap survives across updates; superseded pushes are
        # skipped lazily at pop time.  Purely a local accelerator — it is
        # rebuilt on demand, never persisted.
        self._heaps: dict[str, list[tuple[tuple[float, float], str]]] = {}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def offer_pair(
        self,
        video_id: str,
        partners: Sequence[str],
        now: float | None = None,
    ) -> list[float | None]:
        """Score ``video_id`` against each partner and refresh the lists.

        The served pair step of one engagement: all vectors come from one
        arena read, each partner is scored with the scalar Eq. 12 fusion,
        ``video_id``'s list takes every scored partner in one update, and
        each scored partner's list takes ``video_id``.  The stored lists
        equal those of scoring the pairs one by one (:meth:`score_pair`,
        then :meth:`insert_scored` both ways, in partner order).

        Returns one raw fused relevance per partner, ``None`` where the
        pair cannot be scored (unknown video, missing vector, or a
        self-pair).
        """
        scores: list[float | None] = [None] * len(partners)
        meta_i = self.videos.get(video_id)
        if meta_i is None or not partners:
            return scores
        y_i, *vectors = self.model.video_vectors_many([video_id, *partners])
        if y_i is None:
            return scores
        timestamp = self.clock.now() if now is None else now
        scored = []
        for n, (other, y_j) in enumerate(zip(partners, vectors)):
            meta_j = self.videos.get(other)
            if other == video_id or meta_j is None or y_j is None:
                continue
            raw = self.scorer.raw_relevance(meta_i, y_i, meta_j, y_j)
            scores[n] = raw
            scored.append((other, raw, timestamp))
        if scored:
            self._insert(video_id, scored)
            for other, raw, _ in scored:
                self._insert(other, [(video_id, raw, timestamp)])
        return scores

    def score_pair(
        self, video_i: str, video_j: str
    ) -> float | None:
        """Compute the raw fused relevance without touching the tables.

        The ``ItemPairSim`` bolt uses this: scoring happens on the pair's
        worker, storage happens downstream on the video's worker.
        """
        if video_i == video_j:
            return None
        meta_i = self.videos.get(video_i)
        meta_j = self.videos.get(video_j)
        if meta_i is None or meta_j is None:
            return None
        y_i, y_j = self.model.video_vectors_many([video_i, video_j])
        if y_i is None or y_j is None:
            return None
        return self.scorer.raw_relevance(meta_i, y_i, meta_j, y_j)

    def insert_scored(
        self, video_id: str, other_id: str, raw: float, timestamp: float
    ) -> None:
        """Store one pre-scored directed entry (the ``ResultStorage`` step)."""
        self._insert(video_id, [(other_id, raw, timestamp)])

    def _rebuild_heap(
        self, video_id: str, entries: dict[str, tuple[float, float]]
    ) -> list[tuple[tuple[float, float], str]]:
        xi = self.config.xi
        heap = [
            (_eviction_key(raw, updated_at, xi), other)
            for other, (raw, updated_at) in entries.items()
        ]
        heapq.heapify(heap)
        self._heaps[video_id] = heap
        return heap

    def _insert(
        self, video_id: str, scored: Sequence[tuple[str, float, float]]
    ) -> None:
        """Put each ``(other_id, raw, timestamp)`` into ``video_id``'s list,
        in order, evicting whenever the list overflows — one atomic store
        update for the lot.

        Eviction compares *damped* relevances (via the time-invariant
        :func:`_eviction_key`) so a stale high raw score cannot squat in
        the table forever.  The stored dict is mutated in place under the
        store's atomic update — no copy of all K entries per write — and
        the weakest entry comes off the instance's min-heap in O(log K)
        rather than a full scan.
        """
        xi = self.config.xi
        table_size = self.config.table_size

        def _update(entries: dict[str, tuple[float, float]]):
            heap = self._heaps.get(video_id)
            if heap is None:
                heap = self._rebuild_heap(video_id, entries)
            for other_id, raw, timestamp in scored:
                entries[other_id] = (raw, timestamp)
                key = _eviction_key(raw, timestamp, xi)
                heapq.heappush(heap, (key, other_id))
                if len(entries) > table_size:
                    while True:
                        if not heap:
                            # Cache missed writes from another table
                            # instance over the same store; resync and
                            # keep going.
                            heap = self._rebuild_heap(video_id, entries)
                        weakest_key, weakest = heapq.heappop(heap)
                        current = entries.get(weakest)
                        if current is None:
                            continue  # already evicted; lazily discarded
                        if _eviction_key(*current, xi) != weakest_key:
                            continue  # superseded by a newer push for this id
                        del entries[weakest]
                        break
                if len(heap) > 4 * table_size:
                    heap = self._rebuild_heap(video_id, entries)
            return entries

        self._table.update(video_id, _update, default={})

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def neighbors(
        self, video_id: str, k: int | None = None, now: float | None = None
    ) -> list[tuple[str, float]]:
        """The top-``k`` similar videos with damping applied at read time.

        Entries whose damped relevance is no longer positive are dropped —
        fully forgotten per the paper's "past similar videos should be
        gradually forgotten".
        """
        entries: dict[str, tuple[float, float]] = self._table.get(video_id, {})
        current = self.clock.now() if now is None else now
        return self._rank(entries, k, current)

    def neighbors_many(
        self,
        video_ids: Sequence[str],
        k: int | None = None,
        now: float | None = None,
    ) -> list[list[tuple[str, float]]]:
        """Batch :meth:`neighbors`: one store round-trip for all seeds.

        Returns one ranked list per seed, in input order — the candidate
        selector's path, where a request's seeds become one ``mget``
        (one call per shard on a sharded store) instead of a get per seed.
        Duplicate seeds (a video appearing twice in a user's recent
        history) are fetched — and ranked — once, then fanned back out.
        """
        current = self.clock.now() if now is None else now
        unique = list(dict.fromkeys(video_ids))
        ranked = {
            vid: self._rank(entries or {}, k, current)
            for vid, entries in zip(unique, self._table.mget(unique))
        }
        return [ranked[vid] for vid in video_ids]

    def _rank(
        self,
        entries: dict[str, tuple[float, float]],
        k: int | None,
        current: float,
    ) -> list[tuple[str, float]]:
        if not entries:
            return []
        # Snapshot first: entries may be the live stored dict (inserts
        # mutate it in place) and a concurrent writer must not upend the
        # iteration.  A plain dict() copy is atomic under the GIL.
        scored = [
            (other, self.scorer.damped(raw, current - updated_at))
            for other, (raw, updated_at) in list(dict(entries).items())
        ]
        scored = [(other, sim) for other, sim in scored if sim > 0.0]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        limit = self.config.table_size if k is None else k
        return scored[:limit]

    def tracked_videos(self) -> list[str]:
        """Ids of all videos that currently have a similar list."""
        return list(self._table.keys())

    def __contains__(self, video_id: str) -> bool:
        return video_id in self._table
