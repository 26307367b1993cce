"""Candidate retrieval for ``"ann"`` mode: an exact scan over the video factors.

The paper serves from similar-video tables (§4.1).  ``RetrievalConfig(mode=
"ann")`` draws the candidate pool from the learned factors instead, and
:class:`AnnIndex` answers it with one matmul over every video:

* a warm user's shortlist is the top ``OVERFETCH * n`` of ``M @ x_u + b`` —
  the terms of Eq. 2 that vary by video;
* a cold user's shortlist is, per seed video, the top ``OVERFETCH * n`` by
  cosine to the seed.

``M`` is a row-aligned float32 mirror of the video arena, with a bias
vector, per-row norms and an id array beside it.  The shortlist is stage 1;
the recommender re-ranks it with the float64 ``predict_many`` (stage 2), so
the served order is exact Eq. 2 and the overfetch only absorbs float32
rounding at the cut.  At the 200k-video catalog ``"ann"`` serves, the scan
is exact and costs less memory and build time than an approximate index
did (DESIGN.md "Candidate retrieval index"); the class keeps its name
because callers select it as ``"ann"``.

The mirror is derived state, never checkpointed: :meth:`AnnIndex.build_from_model`
rebuilds it from the model's sorted export, and :meth:`AnnIndex.upsert`
folds in each trainer update.  Writers hold the lock; a query reads the
array references and row count under it and scans outside it, so a row
upserted mid-scan may be scored from its old or new coordinates — never
from a row that is not a known video.  The lock separates the thread that
runs ``observe`` (an upsert per update) from a request thread querying
beside it.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..obs.registry import Children

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability
    from .mf import MFModel

#: Stage 1 returns ``OVERFETCH * n`` ids for a top-``n`` request.
OVERFETCH = 2


def top_n_by_score(
    video_ids: Sequence[str], scores: np.ndarray, n: int
) -> list[tuple[str, float]]:
    """Exact top-``n`` by ``(score desc, video_id asc)``.

    The single tie-break rule every ranking stage shares: equal scores are
    broken by ascending video id, so scan-vs-brute-force equivalence never
    depends on array order or sort stability.  Uses ``np.partition`` to
    avoid sorting the full candidate set when ``n`` is small.
    """
    m = len(video_ids)
    if n <= 0 or m == 0:
        return []
    scores = np.asarray(scores, dtype=np.float64)
    if m <= n:
        order = sorted(range(m), key=lambda i: (-scores[i], video_ids[i]))
        return [(video_ids[i], float(scores[i])) for i in order]
    kth = np.partition(scores, m - n)[m - n]  # n-th largest value
    above = np.flatnonzero(scores > kth)
    picks = sorted(
        ((-float(scores[i]), video_ids[i]) for i in above)
    )
    # Fill the remaining slots from the boundary-equal rows by ascending id
    # — the part a plain partition would leave nondeterministic.
    boundary = sorted(video_ids[int(i)] for i in np.flatnonzero(scores == kth))
    out = [(vid, -neg) for neg, vid in picks]
    out.extend((vid, float(kth)) for vid in boundary[: n - len(out)])
    return out


def _norms(rows: np.ndarray) -> np.ndarray:
    """Float64 norms of float32 rows, without a float64 copy of them."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))


class AnnIndex:
    """Row-aligned float32 mirror of the video factors, scanned exactly.

    Queries return id-sorted shortlists: candidate order is decided by the
    exact re-rank stage, never by row order.
    """

    def __init__(self, f: int, obs: "Observability | None" = None) -> None:
        if f < 1:
            raise ValueError(f"factor dimensionality must be >= 1, got {f}")
        self.f = f
        self._lock = threading.Lock()
        self._install(
            [], np.zeros((0, f), dtype=np.float32), np.zeros(0, dtype=np.float32)
        )
        if obs is None:
            self._queries = self._rebuilds = self._indexed = None
        else:
            reg = obs.registry
            self._queries = Children(
                reg.counter(
                    "ann_queries_total", "Retrieval scans by kind", ("kind",)
                )
            )
            self._rebuilds = reg.counter(
                "ann_rebuilds_total", "Full mirror (re)builds"
            )
            self._indexed = reg.gauge(
                "ann_indexed_videos", "Videos currently indexed"
            )

    def _install(
        self, ids: list[str], matrix: np.ndarray, bias: np.ndarray
    ) -> None:
        """Adopt the row-aligned float32 ``matrix`` and ``bias`` over
        ``ids`` as the mirror, without copying them (caller holds the
        lock, or no reader exists yet)."""
        self._ids = np.empty(len(ids), dtype=object)
        self._ids[:] = ids
        self._matrix, self._bias = matrix, bias
        self._norms = _norms(matrix)
        self._row_of = dict(zip(ids, range(len(ids))))
        self._n = len(ids)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def build_from_model(self, model: "MFModel") -> dict:
        """Rebuild the mirror from the model's learned video factors.

        Reads the model's deterministic export (sorted ids), so a fresh
        build and a checkpoint-restored build hold identical rows in
        identical order.  The export is float32 and becomes the mirror
        itself, so the build holds no full-size copy besides it.  Returns
        ``{"indexed", "build_seconds"}``.
        """
        started = time.perf_counter()
        ids, vectors, biases = model.video_rows(np.float32)
        with self._lock:
            self._install(ids, vectors, biases)
        if self._rebuilds is not None:
            self._rebuilds.inc()
            self._indexed.set(len(ids))
        return {
            "indexed": len(ids),
            "build_seconds": time.perf_counter() - started,
        }

    def upsert(self, video_id: str, vector: np.ndarray, bias: float = 0.0) -> None:
        """Overwrite ``video_id``'s row, or append one (doubling when full)."""
        vector = np.asarray(vector, dtype=np.float32)
        if vector.shape != (self.f,):
            raise ValueError(
                f"vector shape {vector.shape} does not match f={self.f}"
            )
        with self._lock:
            row = self._row_of.get(video_id)
            if row is None:
                row = self._n
                if row == len(self._ids):
                    self._grow()
                self._ids[row] = video_id
                self._row_of[video_id] = row
                self._n = row + 1
                if self._indexed is not None:
                    self._indexed.set(self._n)
            self._matrix[row] = vector
            self._bias[row] = bias
            self._norms[row] = _norms(vector[None, :])[0]

    def _grow(self) -> None:
        """Double the arrays.  Fresh arrays, so a scan holding the old ones
        keeps a consistent view."""
        n, capacity = self._n, max(64, 2 * len(self._ids))

        def grown(old: np.ndarray) -> np.ndarray:
            fresh = np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
            fresh[:n] = old[:n]
            return fresh

        self._ids, self._matrix, self._bias, self._norms = map(
            grown, (self._ids, self._matrix, self._bias, self._norms)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return self._n

    def __contains__(self, video_id: str) -> bool:
        with self._lock:
            return video_id in self._row_of

    def _view(self, exclude: set[str] | None, kind: str):
        """``(ids, matrix, bias, norms, blocked rows)`` of the current rows."""
        with self._lock:
            n, row_of = self._n, self._row_of
            view = (
                self._ids[:n], self._matrix[:n], self._bias[:n],
                self._norms[:n],
                [row_of[vid] for vid in exclude or () if vid in row_of],
            )
        if self._queries is not None:
            self._queries[kind].inc()
        return view

    @staticmethod
    def _top(ids, scores: np.ndarray, blocked: list[int], n: int) -> list[str]:
        scores[blocked] = -np.inf
        return [
            vid
            for vid, score in top_n_by_score(ids, scores, OVERFETCH * n)
            if score > -np.inf
        ]

    def query_user(
        self, x_u: np.ndarray, n: int, exclude: set[str] | None = None
    ) -> list[str]:
        """Id-sorted top ``OVERFETCH * n`` by ``y . x_u + b`` (Eq. 2's
        video-dependent terms), ``exclude`` left out."""
        ids, matrix, bias, _, blocked = self._view(exclude, "user")
        scores = matrix @ np.asarray(x_u, dtype=np.float32) + bias
        return sorted(self._top(ids, scores, blocked, n))

    def query_item(
        self, y: np.ndarray, n: int, exclude: set[str] | None = None
    ) -> list[str]:
        """Id-sorted top ``OVERFETCH * n`` by cosine to the seed ``y``.

        ``y`` may stack several seeds as rows: they are scored in one
        product and the result is the union of their shortlists.
        """
        seeds = np.atleast_2d(np.asarray(y, dtype=np.float32))
        ids, matrix, _, norms, blocked = self._view(exclude, "item")
        dots = (matrix @ seeds.T).astype(np.float64)
        denom = np.outer(norms, _norms(seeds))
        cosine = np.divide(
            dots, denom, out=np.zeros_like(dots), where=denom > 0
        )
        shortlist: set[str] = set()
        for column in cosine.T:
            shortlist.update(self._top(ids, column, blocked, n))
        return sorted(shortlist)
