"""Exact factor-scan retrieval — the ``"ann"`` mode's two stages vs brute force.

``RetrievalConfig(mode="ann")`` (DESIGN.md "Candidate retrieval index")
shortlists the top ``OVERFETCH * n`` videos by one float32 scan of
``M @ x_u + b`` over a mirror of the video factors, then re-ranks the
shortlist in float64.  This benchmark sweeps catalog size on a clustered
synthetic factor catalog (the shape learned factors have) and pins the
contract:

* the two-stage top-100 equals the brute-force float64 top-100 exactly —
  same ids, same order — for every query at every size;
* the mirror's build peaks at no more than 1.25x the bytes it keeps
  (``build_peak_mb``, from ``tracemalloc``, so it holds on any host);
* the brute and scan ``*_p50_ms`` columns and the mirror's build time are
  reported, not asserted (their ratios do not hold on a shared host).

Emits ``BENCH_ann_retrieval.json``.
"""

import time
import tracemalloc

import numpy as np

from repro.core import AnnIndex, top_n_by_score
from repro.core.annindex import OVERFETCH

from _emit import bench_smoke, emit_bench
from _helpers import format_rows, report

F = 32
TOP_N = 100
SIZES = [20_000, 300_000] if bench_smoke() else [10_000, 100_000, 1_000_000]
N_QUERIES = 20 if bench_smoke() else 30


class _Catalog:
    """Clustered factor catalog: C centers, tight per-cluster noise.

    Exposes ``video_rows(dtype)`` — the one method
    ``AnnIndex.build_from_model`` reads — as a model does: fresh arrays in
    ``dtype``, which the mirror keeps.
    """

    def __init__(self, n: int, seed: int = 7) -> None:
        rng = np.random.default_rng(seed)
        n_centers = max(64, n // 100)
        self.centers = rng.standard_normal((n_centers, F)) * 0.25
        assign = rng.integers(0, n_centers, size=n)
        self.vectors = (
            self.centers[assign] + rng.standard_normal((n, F)) * 0.06
        )
        self.biases = rng.standard_normal(n) * 0.05
        self.ids = [f"v{i:07d}" for i in range(n)]

    def video_rows(self, dtype=np.float64):
        return self.ids, self.vectors.astype(dtype), self.biases.astype(dtype)

    def queries(self, rng) -> np.ndarray:
        picks = self.centers[rng.integers(0, len(self.centers), N_QUERIES)]
        return picks + rng.standard_normal((N_QUERIES, F)) * 0.08


def test_exact_scan_matches_brute_force():
    results = []
    for n in SIZES:
        catalog = _Catalog(n)
        ids, vectors, biases = catalog.ids, catalog.vectors, catalog.biases
        row_of = {vid: row for row, vid in enumerate(ids)}

        # Build once under tracemalloc (it slows allocation, so the timed
        # build below is a second one): peak vs the bytes the mirror keeps.
        index = AnnIndex(F)
        tracemalloc.start()
        try:
            index.build_from_model(catalog)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * kept, (
            f"mirror build at n={n} peaked at {peak / kept:.2f}x what it keeps"
        )

        index = AnnIndex(F)
        started = time.perf_counter()
        index.build_from_model(catalog)
        build_seconds = time.perf_counter() - started

        overlaps, scan_times, brute_times = [], [], []
        for x in catalog.queries(np.random.default_rng(123)):
            t0 = time.perf_counter()
            exact = top_n_by_score(ids, vectors @ x + biases, TOP_N)
            brute_times.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            shortlist = index.query_user(x, TOP_N)
            rows = [row_of[vid] for vid in shortlist]
            served = top_n_by_score(
                shortlist, vectors[rows] @ x + biases[rows], TOP_N
            )
            scan_times.append(time.perf_counter() - t0)

            assert len(shortlist) == OVERFETCH * TOP_N
            assert [vid for vid, _ in served] == [vid for vid, _ in exact], (
                f"two-stage top-{TOP_N} differs from brute force at n={n}"
            )
            overlaps.append(
                len({vid for vid, _ in served} & {vid for vid, _ in exact})
                / TOP_N
            )

        results.append(
            {
                "n": n,
                "build_s": round(build_seconds, 3),
                "build_peak_mb": round(peak / 1e6, 2),
                "recall_at_100": round(float(np.mean(overlaps)), 4),
                "brute_p50_ms": round(float(np.median(brute_times)) * 1e3, 3),
                "scan_p50_ms": round(float(np.median(scan_times)) * 1e3, 3),
            }
        )
        del catalog, index, row_of, ids, vectors, biases

    report("ann_retrieval", format_rows(results))
    emit_bench(
        "ann_retrieval",
        metrics={
            f"{key}_n{row['n']}": row[key]
            for row in results
            for key in (
                "recall_at_100",
                "brute_p50_ms",
                "scan_p50_ms",
                "build_s",
                "build_peak_mb",
            )
        },
        params={
            "f": F,
            "top_n": TOP_N,
            "n_queries": N_QUERIES,
            "overfetch": OVERFETCH,
        },
    )
