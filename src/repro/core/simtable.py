"""Similar-video tables (paper §4.2).

For every video the system keeps "a top-N similar video list" in the KV
storage (here the model's :class:`~repro.core.state.ModelState`) — the key
data structure that makes real-time top-N generation
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

All lists are one value (:class:`SimilarLists`, the state's ``lists``),
the way the factors live in one :class:`~repro.core.arena.FactorArena`, so
the k + 1 list updates of one engagement are one insert.
"""

from __future__ import annotations

import heapq
import math
import threading
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..clock import Clock, SystemClock
from ..config import SimilarityConfig
from ..data.schema import Video
from .similarity import SimilarityScorer, fused, type_similarity

if TYPE_CHECKING:
    from .mf import MFModel


#: Most history partners one engagement is paired with (§5.1) — the one
#: bound on pair work per action, shared by :func:`pair_partners` and the
#: topology's ``GetItemPairs`` bolt.
MAX_PAIRS = 20


def pair_partners(
    new_video: str, recent_videos: list[str], limit: int = MAX_PAIRS
) -> list[str]:
    """The videos an engagement with ``new_video`` is paired with.

    Up to ``limit`` of the user's most recent *other* videos, newest
    first — the co-occurrence signal the similar-video tables are built
    from.
    """
    partners = [other for other in recent_videos if other != new_video]
    del partners[limit:]
    return partners


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


#: One directed list update: ``(video, other, raw relevance, timestamp,
#: eviction key)``; the key is :func:`_eviction_key` of the raw relevance
#: and timestamp, computed once per scored pair for both directions.
Entry = tuple[str, str, float, float, tuple[float, float]]


class SimilarLists:
    """Every video's top-K similar list, as one value.

    A row is a dict ``other -> (raw, updated_at, eviction key)`` with its
    own min-heap of ``(eviction key, other)``: eviction pops the weakest
    entry in O(log K) instead of scanning all K.  Keys are time-invariant
    (see :func:`_eviction_key`), so a row's heap survives across updates.
    Every entry has a heap item whose key is at most the entry's, so the
    first popped item that equals its entry's key is the weakest entry: a
    rewrite that raises an entry's key (the usual case, as time moves on)
    pushes nothing, and an eviction that pops such an outdated item
    pushes the entry's current key back and pops again.

    Thread safety: every method takes the value's own lock, so a reader
    copies a row while no writer is mid-update.  The lock separates two
    threads that share the lists: the two ``ResultStorage`` workers of
    the threaded topology executor, which insert into one dict of rows
    concurrently, and a request thread copying rows while ``observe``
    inserts on another.  Pickling (checkpoints)
    goes through :meth:`__getstate__` and keeps only
    ``{video: {other: (raw, updated_at)}}``; keys and heaps are rebuilt
    per row on that row's first write after a restore.
    """

    def __init__(self) -> None:
        self._rows: dict[str, dict[str, tuple]] = {}
        # Per row: its min-heap; a restored row has none until written.
        self._weakest: dict[str, list[tuple[tuple[float, float], str]]] = {}
        self._lock = threading.RLock()

    def insert(
        self, entries: Iterable[Entry], table_size: int, xi: float
    ) -> None:
        """Apply each ``(video, other, raw, timestamp, key)`` in order,
        evicting the weakest entry of ``video``'s row whenever it
        overflows.  ``xi`` keys a restored row's stored entries."""
        rows, weakest = self._rows, self._weakest
        with self._lock:
            for video, other, raw, timestamp, key in entries:
                row = rows.get(video)
                if row is None:
                    row = rows[video] = {}
                    heap = weakest[video] = []
                else:
                    heap = weakest.get(video)
                    if heap is None:
                        # First write since a restore: key the row.
                        for o, (r, t, _) in row.items():
                            row[o] = (r, t, _eviction_key(r, t, xi))
                        heap = self._reheap(video)
                old = row.get(other)
                row[other] = (raw, timestamp, key)
                if old is not None:
                    # A rewrite: the row keeps its size, and an entry's
                    # heap item only has to bound its key from below.
                    if key < old[2]:
                        heapq.heappush(heap, (key, other))
                elif len(row) <= table_size:
                    heapq.heappush(heap, (key, other))
                else:
                    # Push the newcomer and pop the weakest in one step.
                    # A popped item of an evicted id is skipped; one below
                    # its entry's key goes back in at that key.
                    weakest_key, evicted = heapq.heappushpop(heap, (key, other))
                    while (entry := row.get(evicted)) is None or (
                        entry[2] != weakest_key
                    ):
                        if entry is not None:
                            heapq.heappush(heap, (entry[2], evicted))
                        weakest_key, evicted = heapq.heappop(heap)
                    del row[evicted]
                if len(heap) > 4 * table_size:
                    self._reheap(video)

    def _reheap(self, video: str) -> list[tuple[tuple[float, float], str]]:
        """Rebuild ``video``'s heap from its row's stored keys."""
        heap = [(entry[2], other) for other, entry in self._rows[video].items()]
        heapq.heapify(heap)
        self._weakest[video] = heap
        return heap

    def rows(self, video_ids: Iterable[str]) -> list[dict[str, tuple]]:
        """A copy of each video's row (empty when it has none)."""
        with self._lock:
            return [dict(self._rows.get(video, ())) for video in video_ids]

    def videos(self) -> list[str]:
        """Ids of all videos that have a list."""
        with self._lock:
            return list(self._rows)

    def __contains__(self, video_id: str) -> bool:
        with self._lock:
            return video_id in self._rows

    def __getstate__(self) -> dict[str, dict[str, tuple[float, float]]]:
        with self._lock:
            return {
                video: {other: entry[:2] for other, entry in row.items()}
                for video, row in self._rows.items()
            }

    def __setstate__(
        self, state: dict[str, dict[str, tuple[float, float]]]
    ) -> None:
        self._rows = {
            video: {
                other: (raw, updated_at, None)
                for other, (raw, updated_at) in row.items()
            }
            for video, row in state.items()
        }
        self._weakest = {}
        self._lock = threading.RLock()


class SimilarVideoTable:
    """Incrementally maintained top-K similar-video lists.

    The table needs the video catalogue (for type similarity) and the MF
    model (for latent vectors).  Pairs whose videos have no learned vector
    yet are ignored — they cannot be scored.

    Ties are broken by id, both ways:

    * when two entries of a full list have equal eviction keys (equal
      damped relevance at every read time), the smaller ``other`` id is
      evicted first;
    * when two entries have equal damped similarities at read time, they
      are served in ascending id order.

    All lists are one value, ``model.state.lists``, written under fields
    grouping by video: one writer per row, not per key, as with the factor
    arena's rows.
    """

    def __init__(
        self,
        videos: Mapping[str, Video],
        model: "MFModel",
        config: SimilarityConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.videos = videos
        self.model = model
        self.config = config or SimilarityConfig()
        self.scorer = SimilarityScorer(self.config)
        self.clock = clock or SystemClock()

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
        arena read, as read-only row views (``observe`` runs on one thread,
        so no arena write happens while the step reads them and nothing is
        copied), each partner is scored as
        :meth:`SimilarityScorer.raw_relevance` scores it (through
        :func:`~repro.core.similarity.fused`, with Eq. 9's ``np.dot``
        taken as ``ndarray.dot``: the same product, without the
        function's dispatch), and one insert puts
        every scored partner into ``video_id``'s list (in partner order)
        and ``video_id`` into each scored partner's list, both directions
        sharing the pair's one eviction key.  The stored lists equal those
        of scoring the pairs one by one (:meth:`score_pair`, then
        :meth:`insert_scored` both ways, in partner order).

        Returns one raw fused relevance per partner, ``None`` where the
        pair cannot be scored (unknown video, missing vector, or a
        self-pair).
        """
        scores: list[float | None] = [None] * len(partners)
        videos = self.videos
        meta_i = videos.get(video_id)
        if meta_i is None or not partners:
            return scores
        y_i, *vectors = self.model.video_row_views([video_id, *partners])
        if y_i is None:
            return scores
        timestamp = self.clock.now() if now is None else now
        beta, xi = self.config.beta, self.config.xi
        forward: list[Entry] = []
        backward: list[Entry] = []
        for n, (other, y_j) in enumerate(zip(partners, vectors)):
            meta_j = videos.get(other)
            if other == video_id or meta_j is None or y_j is None:
                continue
            raw = fused(
                float(y_i.dot(y_j)), type_similarity(meta_i, meta_j), beta
            )
            scores[n] = raw
            key = _eviction_key(raw, timestamp, xi)
            forward.append((video_id, other, raw, timestamp, key))
            backward.append((other, video_id, raw, timestamp, key))
        if forward:
            self._insert(forward + backward)
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
        key = _eviction_key(raw, timestamp, self.config.xi)
        self._insert([(video_id, other_id, raw, timestamp, key)])

    def _insert(self, entries: list[Entry]) -> None:
        """Apply directed entries, in order, in one insert.

        Eviction compares *damped* relevances (via the time-invariant
        :func:`_eviction_key`) so a stale high raw score cannot squat in
        the table forever.
        """
        self._lists().insert(entries, self.config.table_size, self.config.xi)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _lists(self) -> SimilarLists:
        return self.model.state.lists

    def neighbors(
        self, video_id: str, k: int | None = None, now: float | None = None
    ) -> list[tuple[str, float]]:
        """The top-``k`` similar videos with damping applied at read time.

        Entries whose damped relevance is no longer positive are dropped —
        fully forgotten per the paper's "past similar videos should be
        gradually forgotten".
        """
        [entries] = self._lists().rows([video_id])
        current = self.clock.now() if now is None else now
        return self._rank(entries, k, current)

    def neighbors_many(
        self,
        video_ids: Sequence[str],
        k: int | None = None,
        now: float | None = None,
    ) -> list[list[tuple[str, float]]]:
        """Batch :meth:`neighbors`: one read of the lists for all seeds.

        Returns one ranked list per seed, in input order — the candidate
        selector's path, where a request's seeds become one copy of their
        rows under the lists' lock.  Duplicate seeds (a
        video appearing twice in a user's recent history) are copied — and
        ranked — once, then fanned back out.
        """
        current = self.clock.now() if now is None else now
        unique = list(dict.fromkeys(video_ids))
        ranked = {
            vid: self._rank(entries, k, current)
            for vid, entries in zip(unique, self._lists().rows(unique))
        }
        return [ranked[vid] for vid in video_ids]

    def _rank(
        self,
        entries: dict[str, tuple],
        k: int | None,
        current: float,
    ) -> list[tuple[str, float]]:
        if not entries:
            return []
        scored = [
            (other, self.scorer.damped(raw, current - updated_at))
            for other, (raw, updated_at, _) in entries.items()
        ]
        scored = [(other, sim) for other, sim in scored if sim > 0.0]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        limit = self.config.table_size if k is None else k
        return scored[:limit]

    def tracked_videos(self) -> list[str]:
        """Ids of all videos that currently have a similar list."""
        return self._lists().videos()

    def __contains__(self, video_id: str) -> bool:
        return video_id in self._lists()
