"""Sublinear candidate retrieval: LSH index over learned factor vectors.

The paper's serving path expands similar-video tables per seed (§4.1) and
post-filters by demographic group (§5.1); both stages are linear in the
candidate pool.  At catalog scale the retrieval stage — not Eq. 2 scoring —
dominates tail latency, so this module adds an index layer that makes
top-N retrieval sublinear in catalog size:

* **Random-hyperplane signatures** (:class:`RandomHyperplanes`) generalise
  the :mod:`repro.baselines.simhash` machinery from weighted token sets to
  dense factor vectors: ``tables`` bands of ``band_bits`` sign bits each,
  where the probability two vectors agree on a bit is ``1 - theta/pi``
  (Charikar's cosine LSH).

* **Bias-augmented direction hashing** — top-N under Eq. 2 is maximum
  inner product ``x_u . y_i + b_i``, not cosine.  Sign signatures are
  scale-invariant, so the index hashes the *direction* of the augmented
  item ``[y_i, s*b_i]`` against the augmented query ``[x_u, 1/s]``
  (whose inner product is exactly ``x_u . y_i + b_i``; ``s`` is a
  learned bias scale that keeps the query's constant coordinate small).
  Magnitude is deliberately left to stage 2: the exact re-rank restores
  inner-product order over the shortlist.  The textbook alternative — a
  Neyshabur-Srebro norm-completion coordinate
  ``sqrt(M^2 - |y|^2 - b^2)`` — is strictly worse at LSH time here:
  the completion dominates every below-max-norm item and crushes the
  angular resolution the signatures depend on (measured: recall@100
  collapses below 0.6 at 1M items; direction-only hashing holds above
  0.95).

* **Partitioned inverted lists** — buckets are keyed by
  ``(partition, table, band value)`` where the partition is the video's
  ``kind``.  A query may name the partitions it wants
  (``allowed_partitions=``) and probes only those, instead of filtering
  a full shortlist after the fact.

* **Query-directed multi-probe** — each query probes the exact bucket in
  every table first, then perturbed buckets in ascending *cost* order,
  where a perturbation's cost is the summed projection margin of the bits
  it flips (bits whose projection landed near a hyperplane are the likely
  hash mistakes).  Probing stops as soon as the shortlist target
  (``oversample * n``) is met, so query cost tracks the target — not the
  catalog.

* **Incremental upsert** — :class:`~repro.core.online.OnlineTrainer`
  updates factors every action, but signatures drift slowly; videos are
  re-hashed every ``check_every``-th upsert rather than every SGD step.
  Rebucketing leaves lazily-invalidated ("stale") entries behind; the
  index compacts itself when stale entries outnumber live rows.

The index is an *accelerator*, never the source of truth: it is rebuilt
from the model's factor arena (:meth:`AnnIndex.build_from_model`), which
is what the durability story checkpoints — a checkpoint-restored arena
rebuilds an index that serves identical shortlists.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..config import RetrievalConfig
from ..data.schema import Video

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability
    from .mf import MFModel

#: Partition name used when partitioning is disabled or a video has no kind.
UNPARTITIONED = ""

#: Rows hashed per chunk during bulk signature computation (bounds the
#: transient ``(chunk, tables * band_bits)`` projection matrix).
_BUILD_CHUNK = 65_536


def top_n_by_score(
    video_ids: Sequence[str], scores: np.ndarray, n: int
) -> list[tuple[str, float]]:
    """Exact top-``n`` by ``(score desc, video_id asc)``.

    The single tie-break rule every ranking stage shares: equal scores are
    broken by ascending video id, so ANN-vs-brute-force equivalence never
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


def auto_band_bits(
    catalog_size: int, n_partitions: int, config: RetrievalConfig
) -> int:
    """Bits per band targeting ``config.target_occupancy`` rows per bucket.

    Partitioning fragments buckets (each ``(partition, band)`` bucket only
    holds that partition's rows), so the effective bucket count is
    ``n_partitions * 2**bits``; solve for the bits that put the *mean*
    occupancy near the target, clamped to the configured range.
    """
    if config.band_bits:
        return config.band_bits
    n = max(1, catalog_size)
    parts = max(1, n_partitions)
    bits = int(round(np.log2(max(1.0, n / (config.target_occupancy * parts)))))
    return max(config.min_band_bits, min(config.max_band_bits, bits))


class RandomHyperplanes:
    """Seeded family of random hyperplanes producing banded signatures.

    ``tables * band_bits`` hyperplanes in ``R^dim``; each vector's signature
    is the sign pattern of its projections, grouped into ``tables`` band
    values of ``band_bits`` bits each.  Deterministic in ``seed`` — two
    processes with the same config hash identically, which is what makes a
    rebuilt index comparable to the original.
    """

    def __init__(self, dim: int, tables: int, band_bits: int, seed: int) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not 1 <= band_bits <= 63:
            raise ValueError(f"band_bits must be in [1, 63], got {band_bits}")
        if tables < 1:
            raise ValueError(f"tables must be >= 1, got {tables}")
        self.dim = dim
        self.tables = tables
        self.band_bits = band_bits
        rng = np.random.default_rng(seed)
        #: ``(tables * band_bits, dim)`` — one hyperplane normal per bit.
        self.planes = rng.standard_normal((tables * band_bits, dim))

    def bit_matrix(self, vectors: np.ndarray) -> np.ndarray:
        """``(n, tables * band_bits)`` sign bits of each vector."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        return vectors @ self.planes.T > 0.0

    def pack_bands(self, bits: np.ndarray) -> np.ndarray:
        """Pack a ``(n, tables * band_bits)`` bit matrix into ``(n, tables)``
        uint64 band values."""
        n = bits.shape[0]
        out = np.zeros((n, self.tables), dtype=np.uint64)
        for t in range(self.tables):
            band = bits[:, t * self.band_bits : (t + 1) * self.band_bits]
            for j in range(self.band_bits):
                out[:, t] |= band[:, j].astype(np.uint64) << np.uint64(j)
        return out

    def band_values(self, vectors: np.ndarray) -> np.ndarray:
        """``(n, tables)`` uint64 band values of each vector."""
        return self.pack_bands(self.bit_matrix(vectors))

    @staticmethod
    def hamming(bits_a: np.ndarray, bits_b: np.ndarray) -> int:
        """Hamming distance between two full bit signatures."""
        return int(np.count_nonzero(bits_a != bits_b))


class AnnIndex:
    """LSH-bucketed ANN index with partitioned inverted candidate lists.

    Indexes *video* factor vectors; queries are either user vectors (MIPS
    under Eq. 2, including the video bias) or video vectors (nearest items
    to a seed, the cold-user fallback).  Returned shortlists are id-sorted
    — candidate order is decided by the exact re-rank stage, never by
    bucket iteration order.

    Thread safety: writes (upsert/evict/build) and probe-time bucket reads
    take one reentrant lock; numpy gathers run on arrays that are only
    appended to, never mutated in place under a reader.
    """

    def __init__(
        self,
        f: int,
        videos: Mapping[str, Video] | None = None,
        config: RetrievalConfig | None = None,
        obs: "Observability | None" = None,
        expected_videos: int | None = None,
    ) -> None:
        if f < 1:
            raise ValueError(f"factor dimensionality must be >= 1, got {f}")
        self.f = f
        self.videos = videos or {}
        self.config = config or RetrievalConfig()
        cfg = self.config
        expected = expected_videos if expected_videos else len(self.videos)
        n_parts = self._expected_partitions()
        self.band_bits = auto_band_bits(expected or 1024, n_parts, cfg)
        self.tables = cfg.tables
        # Augmented dimensionality: [vector, bias].
        self.family = RandomHyperplanes(
            f + 1, cfg.tables, self.band_bits, cfg.seed
        )
        self._lock = threading.RLock()
        # Row interning (first-touch order, rows never move).  ``_ids_arr``
        # mirrors ``_ids`` as an object-dtype array for vectorized row->id
        # gathers on the query path.
        self._row_of: dict[str, int] = {}
        self._ids: list[str] = []
        capacity = max(64, expected)
        self._ids_arr = np.empty(capacity, dtype=object)
        self._bands = np.zeros((capacity, self.tables), dtype=np.uint64)
        self._alive = np.zeros(capacity, dtype=bool)
        self._part_of_row = np.zeros(capacity, dtype=np.int32)
        self._upserts = np.zeros(capacity, dtype=np.int64)
        self._n_alive = 0
        # Partition interning.
        self._part_ids: dict[str, int] = {}
        self._part_names: list[str] = []
        self._part_id(UNPARTITIONED)
        # Inverted lists: (partition, table, band value) -> rows.  Bulk
        # builds store immutable numpy arrays; incremental upserts convert
        # a bucket to a python list on first append.
        self._buckets: dict[tuple[int, int, int], object] = {}
        self._stale = 0
        # Bias-coordinate scale s of the hashed direction [y, s*b];
        # re-derived from the data on every bulk build unless pinned by
        # config.  1.0 covers the incremental-from-empty regime.
        self._bias_scale = cfg.bias_scale if cfg.bias_scale > 0 else 1.0
        # Pre-computed bit-index combinations for directed probing,
        # radius -> (n_combos, radius) over the lowest-margin bit slots.
        depth = min(self.band_bits, self._DIRECTED_BITS)
        self._probe_combos = [
            np.array(
                list(itertools.combinations(range(depth), radius)),
                dtype=np.int64,
            )
            for radius in range(1, cfg.probe_radius + 1)
            if radius <= depth
        ]
        self._init_obs(obs)

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------

    def _expected_partitions(self) -> int:
        if not self.config.partition_by_kind or not self.videos:
            return 1
        return max(1, len({v.kind for v in self.videos.values()}))

    def _init_obs(self, obs: "Observability | None") -> None:
        if obs is None:
            self._queries = self._probes = self._upsert_ctr = None
            self._shortlist_hist = self._rebuilds = None
            self._indexed_gauge = self._stale_gauge = None
            return
        reg = obs.registry
        self._queries = reg.counter(
            "ann_queries_total", "ANN index queries by kind", ("kind",)
        )
        self._probes = reg.counter(
            "ann_probes_total", "Buckets probed by ANN queries"
        )
        self._shortlist_hist = reg.histogram(
            "ann_shortlist_size",
            "Shortlist rows handed to the exact re-rank stage",
            buckets=(8, 32, 128, 512, 2048, 8192, 32768),
        )
        self._upsert_ctr = reg.counter(
            "ann_upserts_total",
            "Incremental index upserts by outcome",
            ("result",),
        )
        self._rebuilds = reg.counter(
            "ann_rebuilds_total", "Full index (re)builds"
        )
        self._indexed_gauge = reg.gauge(
            "ann_indexed_videos", "Videos currently indexed"
        )
        self._stale_gauge = reg.gauge(
            "ann_stale_entries", "Lazily invalidated bucket entries"
        )

    def _part_id(self, name: str) -> int:
        pid = self._part_ids.get(name)
        if pid is None:
            pid = len(self._part_names)
            self._part_ids[name] = pid
            self._part_names.append(name)
        return pid

    def _partition_name(self, video_id: str) -> str:
        if not self.config.partition_by_kind:
            return UNPARTITIONED
        video = self.videos.get(video_id)
        return video.kind if video is not None and video.kind else UNPARTITIONED

    def _grow(self, need: int) -> None:
        capacity = len(self._alive)
        if need <= capacity:
            return
        new_capacity = max(capacity * 2, need)
        for name in (
            "_bands", "_alive", "_part_of_row", "_upserts", "_ids_arr"
        ):
            old = getattr(self, name)
            fresh = np.zeros(
                (new_capacity,) + old.shape[1:], dtype=old.dtype
            )
            fresh[: len(self._ids)] = old[: len(self._ids)]
            setattr(self, name, fresh)

    def _intern(self, video_id: str) -> int:
        row = self._row_of.get(video_id)
        if row is None:
            row = len(self._ids)
            self._grow(row + 1)
            self._row_of[video_id] = row
            self._ids.append(video_id)
            self._ids_arr[row] = video_id
        return row

    # ------------------------------------------------------------------
    # Signatures (MIPS-augmented)
    # ------------------------------------------------------------------

    def _item_band_values(self, vectors: np.ndarray, biases: np.ndarray) -> np.ndarray:
        """Band values of augmented item directions ``[y, s*b]``.

        The augmented vector is never materialised: its projection onto
        the hyperplanes decomposes into the vector and scaled-bias parts.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        biases = np.atleast_1d(np.asarray(biases, dtype=np.float64))
        planes = self.family.planes
        proj = vectors @ planes[:, : self.f].T
        proj += np.outer(self._bias_scale * biases, planes[:, self.f])
        return self.family.pack_bands(proj > 0.0)

    def _user_projection(self, x_u: np.ndarray) -> np.ndarray:
        """Hyperplane projections of the augmented user query ``[x_u, 1/s]``."""
        x_u = np.asarray(x_u, dtype=np.float64)
        planes = self.family.planes
        return planes[:, : self.f] @ x_u + planes[:, self.f] / self._bias_scale

    def _item_projection(self, y: np.ndarray) -> np.ndarray:
        """Hyperplane projections of a raw item query ``[y, 0]``."""
        y = np.asarray(y, dtype=np.float64)
        return self.family.planes[:, : self.f] @ y

    # ------------------------------------------------------------------
    # Bulk build
    # ------------------------------------------------------------------

    def bulk_load(
        self,
        ids: Sequence[str],
        vectors: np.ndarray,
        biases: np.ndarray | None = None,
    ) -> dict:
        """(Re)build the index from row-aligned factors; returns a report.

        ``vectors``/``biases`` may be zero-copy views into a factor arena —
        they are only read.  Any previous contents are discarded.  Re-derives
        the bias scale ``s`` from the data (unless pinned by config) before
        hashing, so incremental upserts hash consistently with the build.
        """
        started = time.perf_counter()
        ids = list(ids)
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.f:
            raise ValueError(
                f"vectors shape {vectors.shape} does not match f={self.f}"
            )
        if biases is None:
            biases = np.zeros(len(ids), dtype=np.float64)
        biases = np.asarray(biases, dtype=np.float64)
        if len(ids) != len(vectors) or len(ids) != len(biases):
            raise ValueError("ids, vectors and biases must be row-aligned")
        with self._lock:
            n = len(ids)
            self._row_of = {vid: row for row, vid in enumerate(ids)}
            if len(self._row_of) != n:
                raise ValueError("duplicate video ids in bulk_load")
            self._ids = ids
            capacity = max(64, n)
            self._ids_arr = np.empty(capacity, dtype=object)
            self._ids_arr[:n] = ids
            self._bands = np.zeros((capacity, self.tables), dtype=np.uint64)
            self._alive = np.zeros(capacity, dtype=bool)
            self._alive[:n] = True
            self._part_of_row = np.zeros(capacity, dtype=np.int32)
            self._upserts = np.zeros(capacity, dtype=np.int64)
            self._n_alive = n
            self._buckets = {}
            self._stale = 0
            if self.config.partition_by_kind and self.videos:
                for row, vid in enumerate(ids):
                    self._part_of_row[row] = self._part_id(
                        self._partition_name(vid)
                    )
            # Bias-coordinate scale: keep the query's constant coordinate
            # (1/s) at ~1/4 of a typical vector norm so it does not
            # compress the angular spread the signatures rely on.
            if self.config.bias_scale > 0:
                self._bias_scale = self.config.bias_scale
            else:
                vec_norms_sq = np.einsum("ij,ij->i", vectors, vectors)
                median_norm = (
                    float(np.sqrt(np.median(vec_norms_sq))) if n else 0.0
                )
                self._bias_scale = (
                    4.0 / median_norm if median_norm > 0 else 1.0
                )
            for start in range(0, n, _BUILD_CHUNK):
                stop = min(n, start + _BUILD_CHUNK)
                self._bands[start:stop] = self._item_band_values(
                    vectors[start:stop], biases[start:stop]
                )
            self._fill_buckets(
                np.arange(n, dtype=np.int64),
                self._bands[:n],
                self._part_of_row[:n],
            )
            elapsed = time.perf_counter() - started
            report = {
                "indexed": n,
                "tables": self.tables,
                "band_bits": self.band_bits,
                "partitions": len(self._part_names),
                "buckets": len(self._buckets),
                "build_seconds": elapsed,
                "bias_scale": self._bias_scale,
            }
        if self._rebuilds is not None:
            self._rebuilds.inc()
        self._update_gauges()
        return report

    def _fill_buckets(
        self, rows: np.ndarray, bands: np.ndarray, parts: np.ndarray
    ) -> None:
        """Vectorized grouping of ``rows`` into per-table buckets."""
        if not len(rows):
            return
        for t in range(self.tables):
            band_t = bands[:, t]
            order = np.lexsort((rows, band_t, parts))
            sp = parts[order]
            sb = band_t[order]
            sr = rows[order]
            breaks = np.flatnonzero((np.diff(sp) != 0) | (np.diff(sb) != 0))
            starts = np.concatenate(([0], breaks + 1))
            ends = np.concatenate((breaks + 1, [len(sr)]))
            buckets = self._buckets
            for s, e in zip(starts, ends):
                key = (int(sp[s]), t, int(sb[s]))
                existing = buckets.get(key)
                if existing is None:
                    buckets[key] = sr[s:e]
                else:
                    if isinstance(existing, np.ndarray):
                        existing = existing.tolist()
                    existing.extend(int(r) for r in sr[s:e])
                    buckets[key] = existing

    def build_from_model(self, model: "MFModel") -> dict:
        """Build from the model's learned video factors.

        Reads the factor arena through the model's deterministic export
        (sorted ids) so a fresh build and a checkpoint-restored build index
        identical rows in identical order — the rebuild-from-checkpoint
        contract the durability suite pins.
        """
        ids, vectors, biases = model.video_rows()
        return self.bulk_load(ids, vectors, biases)

    def rebuild(self, model: "MFModel") -> dict:
        """Full rebuild (fresh max norm, no stale entries); returns report."""
        return self.build_from_model(model)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def upsert(self, video_id: str, vector: np.ndarray, bias: float = 0.0) -> str:
        """Fold one factor update into the index.

        Returns the outcome: ``"fresh"`` (new video, hashed and inserted),
        ``"skipped"`` (drift check not due yet), ``"checked"`` (re-hashed,
        signature unchanged) or ``"rehashed"`` (signature drifted — moved
        to new buckets, old entries left stale).
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.f,):
            raise ValueError(
                f"vector shape {vector.shape} does not match f={self.f}"
            )
        with self._lock:
            row = self._row_of.get(video_id)
            is_new = row is None or not self._alive[row]
            if row is not None:
                self._upserts[row] += 1
                if (
                    not is_new
                    and self._upserts[row] % self.config.check_every != 0
                ):
                    result = "skipped"
                    self._record_upsert(result)
                    return result
            bands = self._item_band_values(
                vector[None, :], np.array([bias])
            )[0]
            if is_new:
                row = self._intern(video_id)
                self._alive[row] = True
                self._n_alive += 1
                self._part_of_row[row] = self._part_id(
                    self._partition_name(video_id)
                )
                self._bands[row] = bands
                part = int(self._part_of_row[row])
                for t in range(self.tables):
                    self._bucket_append(part, t, int(bands[t]), row)
                result = "fresh"
            else:
                changed = np.flatnonzero(bands != self._bands[row])
                if len(changed):
                    part = int(self._part_of_row[row])
                    for t in changed:
                        self._bucket_append(part, int(t), int(bands[t]), row)
                    self._stale += len(changed)
                    self._bands[row] = bands
                    result = "rehashed"
                else:
                    result = "checked"
                if self._stale > max(1024, self._n_alive):
                    self._compact()
            self._record_upsert(result)
        self._update_gauges()
        return result

    def _bucket_append(self, part: int, table: int, band: int, row: int) -> None:
        key = (part, table, band)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [row]
        else:
            if isinstance(bucket, np.ndarray):
                bucket = bucket.tolist()
                self._buckets[key] = bucket
            bucket.append(row)

    def evict(self, video_id: str) -> bool:
        """Drop a video from the index (bucket entries stale out lazily)."""
        with self._lock:
            row = self._row_of.get(video_id)
            if row is None or not self._alive[row]:
                return False
            self._alive[row] = False
            self._n_alive -= 1
            self._stale += self.tables
            if self._stale > max(1024, self._n_alive):
                self._compact()
        self._update_gauges()
        return True

    def _compact(self) -> None:
        """Rebuild the inverted lists from current signatures (drops stale)."""
        rows = np.flatnonzero(self._alive[: len(self._ids)]).astype(np.int64)
        self._buckets = {}
        self._fill_buckets(
            rows, self._bands[rows], self._part_of_row[rows]
        )
        self._stale = 0

    def _record_upsert(self, result: str) -> None:
        if self._upsert_ctr is not None:
            self._upsert_ctr.labels(result=result).inc()

    def _update_gauges(self) -> None:
        if self._indexed_gauge is not None:
            self._indexed_gauge.set(self._n_alive)
        if self._stale_gauge is not None:
            self._stale_gauge.set(self._stale)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return self._n_alive

    def __contains__(self, video_id: str) -> bool:
        with self._lock:
            row = self._row_of.get(video_id)
            return row is not None and bool(self._alive[row])

    def indexed_ids(self) -> list[str]:
        """Ids currently indexed, sorted."""
        with self._lock:
            rows = np.flatnonzero(self._alive[: len(self._ids)])
            return sorted(self._ids[int(r)] for r in rows)

    #: Lowest-margin bits per band eligible for directed perturbation.
    _DIRECTED_BITS = 12

    def _directed_sequence(
        self, bands: np.ndarray, margins: np.ndarray
    ) -> list[tuple[int, int]]:
        """Cost-ordered ``(table, band)`` probe sequence for one query.

        The exact bucket of every table comes first (cost 0); perturbed
        buckets follow in ascending cost, where flipping a bit costs its
        projection margin ``|proj|`` — bits that barely cleared a
        hyperplane are the likely hash mistakes (query-directed multi-probe,
        Lv et al. 2007).  Perturbations flip up to ``probe_radius`` of the
        ``_DIRECTED_BITS`` lowest-margin bits per band.
        """
        tables = self.tables
        seq = [(t, int(bands[t])) for t in range(tables)]
        if not self._probe_combos:
            return seq
        depth = min(self.band_bits, self._DIRECTED_BITS)
        m = margins.reshape(tables, self.band_bits)
        order = np.argsort(m, axis=1)[:, :depth]          # (T, depth)
        costs = np.take_along_axis(m, order, axis=1)      # (T, depth)
        bitmasks = np.uint64(1) << order.astype(np.uint64)
        cost_parts, band_parts, table_parts = [], [], []
        for combos in self._probe_combos:                 # (K, radius)
            cost = costs[:, combos].sum(axis=2)           # (T, K)
            mask = np.bitwise_or.reduce(
                bitmasks[:, combos], axis=2
            )
            band = bands[:, None] ^ mask
            cost_parts.append(cost.ravel())
            band_parts.append(band.ravel())
            table_parts.append(
                np.repeat(np.arange(tables), cost.shape[1])
            )
        cost = np.concatenate(cost_parts)
        band = np.concatenate(band_parts)
        table = np.concatenate(table_parts)
        by_cost = np.argsort(cost, kind="stable")
        seq.extend(
            zip(table[by_cost].tolist(), band[by_cost].tolist())
        )
        return seq

    def probe_rows(
        self,
        bands: np.ndarray,
        need: int,
        allowed_partitions: Iterable[str] | None = None,
        *,
        margins: np.ndarray,
    ) -> np.ndarray:
        """Deduplicated, row-sorted candidate rows for a banded query.

        ``margins`` (the query's ``|projection|`` per hyperplane) make the
        probe sequence query-directed: cheapest perturbations first,
        stopping as soon as ``need`` rows (pre-dedup) are gathered.
        Restricting ``allowed_partitions`` prunes the probe set — fewer
        buckets touched, smaller shortlist.
        """
        with self._lock:
            if allowed_partitions is None:
                parts: list[int] = list(range(len(self._part_names)))
            else:
                parts = [
                    self._part_ids[name]
                    for name in allowed_partitions
                    if name in self._part_ids
                ]
            chunks: list[object] = []
            gathered = 0
            probed = 0
            buckets = self._buckets
            for t, band in self._directed_sequence(bands, margins):
                for p in parts:
                    probed += 1
                    bucket = buckets.get((p, t, band))
                    if bucket is not None:
                        chunks.append(bucket)
                        gathered += len(bucket)
                if gathered >= need:
                    break
            if self._probes is not None:
                self._probes.inc(probed)
            if not chunks:
                return np.empty(0, dtype=np.int64)
            rows = np.concatenate(
                [np.asarray(c, dtype=np.int64) for c in chunks]
            )
            rows = np.unique(rows)  # dedup + deterministic (row-sorted)
            rows = rows[self._alive[rows]]
            cap = self.config.shortlist_cap
            if len(rows) > cap:
                rows = rows[:cap]
            return rows

    def _query_rows(
        self,
        proj: np.ndarray,
        n: int,
        allowed_partitions: Iterable[str] | None,
        kind: str,
    ) -> np.ndarray:
        bands = self.family.pack_bands((proj > 0.0)[None, :])[0]
        need = max(self.config.min_shortlist, self.config.oversample * n)
        rows = self.probe_rows(
            bands, need, allowed_partitions, margins=np.abs(proj)
        )
        if self._queries is not None:
            self._queries.labels(kind=kind).inc()
        if self._shortlist_hist is not None:
            self._shortlist_hist.observe(len(rows))
        return rows

    def _shortlist_ids(
        self,
        proj: np.ndarray,
        n: int,
        exclude: set[str] | None,
        allowed_partitions: Iterable[str] | None,
        kind: str,
    ) -> list[str]:
        rows = self._query_rows(proj, n, allowed_partitions, kind)
        ids = self._ids_arr[rows].tolist()
        if exclude:
            ids = [vid for vid in ids if vid not in exclude]
        ids.sort()
        return ids

    def query_user_rows(
        self,
        x_u: np.ndarray,
        n: int,
        allowed_partitions: Iterable[str] | None = None,
    ) -> np.ndarray:
        """Shortlist as sorted *row* indices for a user query.

        The zero-materialisation variant of :meth:`query_user` for re-rank
        loops that hold a row-aligned factor matrix (e.g. the one the index
        was bulk-loaded from): re-rank by slicing rows, then map only the
        winning rows through :meth:`ids_for_rows`.  Rows are stable until
        the next :meth:`bulk_load`.
        """
        return self._query_rows(
            self._user_projection(x_u), n, allowed_partitions, "user"
        )

    def ids_for_rows(self, rows: np.ndarray) -> list[str]:
        """Video ids of index rows (as returned by the ``*_rows`` queries)."""
        with self._lock:
            return self._ids_arr[np.asarray(rows, dtype=np.int64)].tolist()

    def query_user(
        self,
        x_u: np.ndarray,
        n: int,
        exclude: set[str] | None = None,
        allowed_partitions: Iterable[str] | None = None,
    ) -> list[str]:
        """Id-sorted shortlist for a user vector (MIPS over Eq. 2)."""
        return self._shortlist_ids(
            self._user_projection(x_u), n, exclude, allowed_partitions, "user"
        )

    def query_item(
        self,
        y: np.ndarray,
        n: int,
        exclude: set[str] | None = None,
        allowed_partitions: Iterable[str] | None = None,
    ) -> list[str]:
        """Id-sorted shortlist of items similar to a seed item vector."""
        return self._shortlist_ids(
            self._item_projection(y), n, exclude, allowed_partitions, "item"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def bucket_occupancy(self) -> dict:
        """Occupancy histogram of the inverted lists (stale entries included)."""
        with self._lock:
            sizes = np.array(
                [len(b) for b in self._buckets.values()], dtype=np.int64
            )
        if not len(sizes):
            return {"buckets": 0, "mean": 0.0, "p50": 0, "p90": 0, "max": 0}
        return {
            "buckets": int(len(sizes)),
            "mean": float(sizes.mean()),
            "p50": int(np.percentile(sizes, 50)),
            "p90": int(np.percentile(sizes, 90)),
            "max": int(sizes.max()),
        }

    def stats(self) -> dict:
        with self._lock:
            return {
                "indexed": self._n_alive,
                "interned": len(self._ids),
                "tables": self.tables,
                "band_bits": self.band_bits,
                "partitions": len(self._part_names),
                "stale_entries": self._stale,
                "bias_scale": self._bias_scale,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AnnIndex(f={self.f}, tables={self.tables}, "
            f"band_bits={self.band_bits}, indexed={len(self)})"
        )
