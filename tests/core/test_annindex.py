"""Tests for the LSH-bucketed ANN index (DESIGN.md "Candidate retrieval
index"): hashing, auto-sizing, incremental maintenance, partition
pruning, and the rebuild-from-checkpoint equivalence contract."""

import numpy as np
import pytest

from repro.config import MFConfig, RetrievalConfig
from repro.core import (
    AnnIndex,
    MFModel,
    RandomHyperplanes,
    auto_band_bits,
    top_n_by_score,
)
from repro.data import Video


def _catalog(n, f=8, kinds=("music", "news", "sport"), seed=3):
    rng = np.random.default_rng(seed)
    ids = [f"v{i:04d}" for i in range(n)]
    videos = {
        vid: Video(vid, kinds[i % len(kinds)], duration=100.0)
        for i, vid in enumerate(ids)
    }
    vectors = rng.standard_normal((n, f)) * 0.3
    biases = rng.standard_normal(n) * 0.05
    return ids, videos, vectors, biases


class TestTopNByScore:
    def test_matches_full_sort_reference(self):
        rng = np.random.default_rng(11)
        ids = [f"v{i}" for i in range(200)]
        # Quantized scores force plenty of exact ties.
        scores = np.round(rng.standard_normal(200), 1)
        got = top_n_by_score(ids, scores, 25)
        ref = sorted(zip(ids, scores), key=lambda p: (-p[1], p[0]))[:25]
        assert [(v, pytest.approx(s)) for v, s in ref] == got

    def test_ties_break_by_ascending_id(self):
        ids = ["vb", "va", "vd", "vc"]
        scores = np.array([1.0, 1.0, 1.0, 2.0])
        assert top_n_by_score(ids, scores, 3) == [
            ("vc", 2.0),
            ("va", 1.0),
            ("vb", 1.0),
        ]

    def test_short_input_returns_everything_sorted(self):
        ids = ["v1", "v0"]
        scores = np.array([0.5, 0.5])
        assert top_n_by_score(ids, scores, 10) == [("v0", 0.5), ("v1", 0.5)]

    def test_empty_and_nonpositive_n(self):
        assert top_n_by_score([], np.array([]), 5) == []
        assert top_n_by_score(["v0"], np.array([1.0]), 0) == []


class TestAutoBandBits:
    def test_grows_with_catalog_size(self):
        cfg = RetrievalConfig()
        small = auto_band_bits(1_000, 1, cfg)
        large = auto_band_bits(1_000_000, 1, cfg)
        assert small < large

    def test_partitions_shrink_the_bands(self):
        cfg = RetrievalConfig()
        assert auto_band_bits(100_000, 8, cfg) <= auto_band_bits(
            100_000, 1, cfg
        )

    def test_clamped_to_configured_range(self):
        cfg = RetrievalConfig()
        assert auto_band_bits(1, 1, cfg) == cfg.min_band_bits
        assert auto_band_bits(10**12, 1, cfg) == cfg.max_band_bits

    def test_explicit_band_bits_wins(self):
        cfg = RetrievalConfig(band_bits=7)
        assert auto_band_bits(10**9, 4, cfg) == 7


class TestRandomHyperplanes:
    def test_deterministic_in_seed(self):
        a = RandomHyperplanes(8, tables=4, band_bits=6, seed=9)
        b = RandomHyperplanes(8, tables=4, band_bits=6, seed=9)
        vecs = np.random.default_rng(0).standard_normal((10, 8))
        assert np.array_equal(a.band_values(vecs), b.band_values(vecs))

    def test_band_values_shape_and_range(self):
        fam = RandomHyperplanes(5, tables=3, band_bits=4, seed=1)
        bands = fam.band_values(np.ones((7, 5)))
        assert bands.shape == (7, 3)
        assert (bands < 16).all()

    def test_sign_signatures_are_scale_invariant(self):
        fam = RandomHyperplanes(6, tables=2, band_bits=8, seed=2)
        v = np.random.default_rng(3).standard_normal(6)
        assert np.array_equal(
            fam.band_values(v[None, :]), fam.band_values(v[None, :] * 37.0)
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="band_bits"):
            RandomHyperplanes(4, tables=2, band_bits=64, seed=0)
        with pytest.raises(ValueError, match="tables"):
            RandomHyperplanes(4, tables=0, band_bits=8, seed=0)
        with pytest.raises(ValueError, match="dim"):
            RandomHyperplanes(0, tables=2, band_bits=8, seed=0)


class TestBulkLoadAndQuery:
    def test_self_retrieval(self):
        ids, videos, vectors, biases = _catalog(400)
        idx = AnnIndex(8, videos=videos)
        idx.bulk_load(ids, vectors, biases)
        # Each indexed vector must retrieve itself (its exact buckets are
        # always probed first).
        for i in (0, 57, 399):
            assert ids[i] in idx.query_item(vectors[i], 10)

    def test_shortlist_subset_of_catalog(self):
        ids, videos, vectors, biases = _catalog(300)
        idx = AnnIndex(8, videos=videos)
        idx.bulk_load(ids, vectors, biases)
        rng = np.random.default_rng(5)
        shortlist = idx.query_user(rng.standard_normal(8), 20)
        assert set(shortlist) <= set(ids)
        assert shortlist == sorted(shortlist)

    def test_exclude_is_respected(self):
        ids, videos, vectors, biases = _catalog(100)
        idx = AnnIndex(8, videos=videos)
        idx.bulk_load(ids, vectors, biases)
        blocked = set(ids[:50])
        shortlist = idx.query_item(vectors[0], 20, exclude=blocked)
        assert not blocked & set(shortlist)

    def test_build_report(self):
        ids, videos, vectors, biases = _catalog(150)
        idx = AnnIndex(8, videos=videos)
        report = idx.bulk_load(ids, vectors, biases)
        assert report["indexed"] == 150
        assert report["partitions"] == 4  # 3 kinds + unpartitioned slot
        assert report["build_seconds"] >= 0.0
        assert report["bias_scale"] > 0.0
        assert len(idx) == 150

    def test_pinned_bias_scale_is_honoured(self):
        ids, videos, vectors, biases = _catalog(60)
        idx = AnnIndex(8, config=RetrievalConfig(bias_scale=2.5))
        report = idx.bulk_load(ids, vectors, biases)
        assert report["bias_scale"] == 2.5

    def test_row_queries_match_id_queries(self):
        ids, videos, vectors, biases = _catalog(250)
        idx = AnnIndex(8, videos=videos)
        idx.bulk_load(ids, vectors, biases)
        x = np.random.default_rng(8).standard_normal(8)
        rows = idx.query_user_rows(x, 15)
        assert sorted(idx.ids_for_rows(rows)) == idx.query_user(x, 15)

    def test_duplicate_ids_rejected(self):
        idx = AnnIndex(4)
        with pytest.raises(ValueError, match="duplicate"):
            idx.bulk_load(["v0", "v0"], np.zeros((2, 4)))

    def test_shape_mismatch_rejected(self):
        idx = AnnIndex(4)
        with pytest.raises(ValueError, match="shape"):
            idx.bulk_load(["v0"], np.zeros((1, 5)))

    def test_bucket_occupancy_histogram(self):
        ids, videos, vectors, biases = _catalog(200)
        idx = AnnIndex(8, videos=videos)
        idx.bulk_load(ids, vectors, biases)
        occ = idx.bucket_occupancy()
        assert occ["buckets"] > 0
        assert occ["max"] >= occ["p90"] >= occ["p50"] >= 1
        assert occ["mean"] > 0.0


class TestIncrementalMaintenance:
    def _index(self, check_every=2):
        _, videos, _, _ = _catalog(10)
        return AnnIndex(
            4,
            videos=videos,
            config=RetrievalConfig(check_every=check_every, min_band_bits=6),
        )

    def test_upsert_outcomes(self):
        idx = self._index(check_every=2)
        v = np.array([0.5, -0.2, 0.1, 0.3])
        assert idx.upsert("v0001", v) == "fresh"
        # Drift check not due yet (every 2nd upsert).
        assert idx.upsert("v0001", v) == "skipped"
        # Due, signature unchanged.
        assert idx.upsert("v0001", v) == "checked"
        assert idx.upsert("v0001", v) == "skipped"
        # Due again, vector flipped -> signature must drift.
        assert idx.upsert("v0001", -v) == "rehashed"

    def test_fresh_video_is_queryable(self):
        idx = self._index()
        v = np.array([1.0, 0.0, 0.0, 0.0])
        idx.upsert("v0003", v)
        assert "v0003" in idx
        assert "v0003" in idx.query_item(v, 5)

    def test_evict_removes_from_results(self):
        idx = self._index()
        v = np.array([0.0, 1.0, 0.0, 0.0])
        idx.upsert("v0004", v)
        assert idx.evict("v0004") is True
        assert "v0004" not in idx
        assert "v0004" not in idx.query_item(v, 5)
        assert idx.evict("v0004") is False  # already gone

    def test_rehash_keeps_video_findable_at_new_signature(self):
        idx = self._index(check_every=1)
        v = np.array([0.8, 0.1, -0.3, 0.2])
        idx.upsert("v0005", v)
        idx.upsert("v0005", -v)  # every upsert checks; flip rehashes
        assert "v0005" in idx.query_item(-v, 5)

    def test_stats_keys(self):
        idx = self._index()
        idx.upsert("v0000", np.ones(4))
        stats = idx.stats()
        assert stats["indexed"] == 1
        assert stats["tables"] == idx.tables
        assert stats["stale_entries"] >= 0
        assert stats["bias_scale"] > 0


class TestPartitions:
    def test_partition_restriction_filters_shortlist(self):
        ids, videos, vectors, biases = _catalog(300)
        idx = AnnIndex(8, videos=videos)
        idx.bulk_load(ids, vectors, biases)
        rng = np.random.default_rng(7)
        for _ in range(5):
            shortlist = idx.query_user(
                rng.standard_normal(8), 20, allowed_partitions=["news"]
            )
            assert shortlist  # news is a third of the catalog
            assert all(videos[vid].kind == "news" for vid in shortlist)

    def test_partitioning_disabled_uses_single_partition(self):
        ids, videos, vectors, biases = _catalog(50)
        idx = AnnIndex(
            8, videos=videos, config=RetrievalConfig(partition_by_kind=False)
        )
        report = idx.bulk_load(ids, vectors, biases)
        assert report["partitions"] == 1


class TestRebuildEquivalence:
    def _trained_model(self, f=6):
        model = MFModel(MFConfig(f=f, seed=4))
        model.observe_rating(0.0)
        model.observe_rating(1.0)
        rng = np.random.default_rng(12)
        for _ in range(300):
            u = f"u{rng.integers(0, 20)}"
            v = f"v{rng.integers(0, 40):04d}"
            model.sgd_step(u, v, float(rng.integers(0, 2)), eta=0.05)
        return model

    def test_checkpoint_restored_index_serves_identical_shortlists(
        self, tmp_path
    ):
        model = self._trained_model()
        fresh = AnnIndex(6)
        fresh.build_from_model(model)

        path = tmp_path / "model.npz"
        model.save(str(path))
        restored_model = MFModel(MFConfig(f=6))
        restored_model.load(str(path))
        restored = AnnIndex(6)
        restored.build_from_model(restored_model)

        assert fresh.indexed_ids() == restored.indexed_ids()
        rng = np.random.default_rng(99)
        for _ in range(10):
            x = rng.standard_normal(6)
            assert fresh.query_user(x, 10) == restored.query_user(x, 10)
            assert fresh.query_item(x, 10) == restored.query_item(x, 10)

    def test_rebuild_reports_cost_and_resets_stale(self):
        model = self._trained_model()
        idx = AnnIndex(6, config=RetrievalConfig(check_every=1))
        idx.build_from_model(model)
        # Dirty the index, then rebuild: stale entries are gone.
        flipped = -np.asarray(model.video_vector("v0001"))
        idx.upsert("v0001", flipped)
        report = idx.rebuild(model)
        assert report["indexed"] == len(model.video_rows()[0])
        assert report["build_seconds"] >= 0.0
        assert idx.stats()["stale_entries"] == 0
