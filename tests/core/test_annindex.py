"""Tests for the factor-scan retrieval index (DESIGN.md "Candidate retrieval
index"): the shared tie-break, exact top-``OVERFETCH * n`` shortlists,
in-place and appending upserts, the rebuild-from-checkpoint equivalence
contract, and scans racing upserts."""

import sys
import threading

import numpy as np
import pytest

from repro.config import MFConfig
from repro.core import AnnIndex, MFModel, top_n_by_score
from repro.core.annindex import OVERFETCH
from repro.core.state import ModelState
from repro.reliability import CheckpointManager


def _catalog(n, f=8, seed=3):
    rng = np.random.default_rng(seed)
    ids = [f"v{i:04d}" for i in range(n)]
    vectors = rng.standard_normal((n, f)) * 0.3
    biases = rng.standard_normal(n) * 0.05
    return ids, vectors, biases


def _index(ids, vectors, biases):
    """An index built, as the recommender builds it, from a model."""
    model = MFModel(MFConfig(f=vectors.shape[1]))
    model.put_params_many(
        [("video", vid, vec, float(b)) for vid, vec, b in zip(ids, vectors, biases)]
    )
    idx = AnnIndex(vectors.shape[1])
    return idx, idx.build_from_model(model)


def _exact(ids, scores, k):
    return sorted(vid for vid, _ in top_n_by_score(ids, scores, k))


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


class TestBulkLoadAndQuery:
    def test_self_retrieval(self):
        ids, vectors, biases = _catalog(400)
        idx, _ = _index(ids, vectors, biases)
        # Cosine 1 is the maximum: every vector is its own best match.
        for i in (0, 57, 399):
            assert ids[i] in idx.query_item(vectors[i], 10)

    def test_shortlist_subset_of_catalog(self):
        ids, vectors, biases = _catalog(300)
        idx, _ = _index(ids, vectors, biases)
        shortlist = idx.query_user(np.random.default_rng(5).standard_normal(8), 20)
        assert set(shortlist) <= set(ids)
        assert shortlist == sorted(shortlist)
        assert len(shortlist) == OVERFETCH * 20

    def test_user_shortlist_is_exact_top_by_inner_product_plus_bias(self):
        ids, vectors, biases = _catalog(300)
        idx, _ = _index(ids, vectors, biases)
        x = np.random.default_rng(6).standard_normal(8)
        assert idx.query_user(x, 15) == _exact(
            ids, vectors @ x + biases, OVERFETCH * 15
        )

    def test_item_shortlist_is_exact_top_by_cosine(self):
        ids, vectors, biases = _catalog(300)
        idx, _ = _index(ids, vectors, biases)
        y = np.random.default_rng(7).standard_normal(8)
        cosine = vectors @ y / (np.linalg.norm(vectors, axis=1) * np.linalg.norm(y))
        assert idx.query_item(y, 15) == _exact(ids, cosine, OVERFETCH * 15)

    def test_stacked_seeds_union_their_shortlists(self):
        ids, vectors, biases = _catalog(200)
        idx, _ = _index(ids, vectors, biases)
        seeds = vectors[[3, 90, 150]]
        union = sorted(set().union(*(idx.query_item(s, 5) for s in seeds)))
        assert idx.query_item(seeds, 5) == union

    def test_exclude_is_respected(self):
        ids, vectors, biases = _catalog(100)
        idx, _ = _index(ids, vectors, biases)
        blocked = set(ids[:50]) | {"not-indexed"}
        shortlist = idx.query_item(vectors[0], 20, exclude=blocked)
        assert not blocked & set(shortlist)
        assert len(shortlist) == OVERFETCH * 20

    def test_exclude_larger_than_the_rest_returns_what_is_left(self):
        ids, vectors, biases = _catalog(30)
        idx, _ = _index(ids, vectors, biases)
        x = np.ones(8)
        assert idx.query_user(x, 10, exclude=set(ids[5:])) == ids[:5]

    def test_build_report(self):
        ids, vectors, biases = _catalog(150)
        idx, report = _index(ids, vectors, biases)
        assert report["indexed"] == 150
        assert report["build_seconds"] >= 0.0
        assert len(idx) == 150
        assert "v0007" in idx and "v9999" not in idx

    def test_shape_mismatch_rejected(self):
        idx = AnnIndex(4)
        with pytest.raises(ValueError, match="shape"):
            idx.upsert("v0", np.zeros(5))

    def test_empty_index_returns_nothing(self):
        idx = AnnIndex(4)
        assert idx.query_user(np.ones(4), 5) == []
        assert idx.query_item(np.ones(4), 5) == []


class TestIncrementalMaintenance:
    def test_fresh_video_is_queryable(self):
        idx = AnnIndex(4)
        v = np.array([1.0, 0.0, 0.0, 0.0])
        idx.upsert("v0003", v)
        assert "v0003" in idx
        assert "v0003" in idx.query_item(v, 5)

    def test_moved_video_is_found_at_its_new_vector(self):
        e1, e2, e3 = np.eye(3)
        idx = AnnIndex(3)
        for vid in ("va", "vb", "vc"):
            idx.upsert(vid, e2)
        idx.upsert("vz", e1)  # sorts last: it wins no id tie-break
        assert "vz" in idx.query_item(e1, 1)
        idx.upsert("vz", e3)
        assert len(idx) == 4
        assert "vz" in idx.query_item(e3, 1)
        assert "vz" not in idx.query_item(e1, 1)

    def test_bias_update_moves_user_ranking(self):
        idx = AnnIndex(2)
        idx.upsert("va", np.zeros(2), 0.1)
        idx.upsert("vb", np.zeros(2), 0.2)
        idx.upsert("vc", np.zeros(2), 0.0)
        idx.upsert("vd", np.zeros(2), -1.0)
        assert idx.query_user(np.ones(2), 1) == ["va", "vb"]
        idx.upsert("vc", np.zeros(2), 5.0)
        assert idx.query_user(np.ones(2), 1) == ["vb", "vc"]

    def test_growth_keeps_every_row(self):
        idx = AnnIndex(3)
        rng = np.random.default_rng(1)
        vectors = {f"v{i}": rng.standard_normal(3) for i in range(200)}
        for vid, vec in vectors.items():
            idx.upsert(vid, vec, 0.0)
        assert len(idx) == 200
        for vid in ("v0", "v63", "v64", "v199"):
            assert vid in idx.query_item(vectors[vid], 1)


class TestRebuildEquivalence:
    def _trained_model(self, f=6, state=None):
        model = MFModel(MFConfig(f=f, seed=4), state)
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
        state = ModelState(6)
        model = self._trained_model(state=state)
        fresh = AnnIndex(6)
        fresh.build_from_model(model)

        manager = CheckpointManager(tmp_path / "ckpts", fsync=False)
        restored_state = ModelState(6)
        manager.restore(manager.create(state), restored_state)
        restored_model = MFModel(MFConfig(f=6), restored_state)
        restored = AnnIndex(6)
        restored.build_from_model(restored_model)

        assert len(fresh) == len(restored) == len(model.video_rows()[0])
        rng = np.random.default_rng(99)
        for _ in range(10):
            x = rng.standard_normal(6)
            assert fresh.query_user(x, 5) == restored.query_user(x, 5)
            assert fresh.query_item(x, 5) == restored.query_item(x, 5)

    def test_rebuild_reports_cost_and_resyncs_with_model(self):
        model = self._trained_model()
        idx = AnnIndex(6)
        idx.build_from_model(model)
        clean = idx.query_item(model.video_vector("v0001"), 3)
        # Drift the mirror away from the model, then rebuild.
        idx.upsert("v0001", -np.asarray(model.video_vector("v0001")))
        idx.upsert("stray", np.ones(6))
        report = idx.build_from_model(model)
        assert report["indexed"] == len(model.video_rows()[0]) == len(idx)
        assert report["build_seconds"] >= 0.0
        assert "stray" not in idx
        assert idx.query_item(model.video_vector("v0001"), 3) == clean


class TestConcurrency:
    def test_scans_racing_growth_see_only_known_videos(self):
        """One thread appends videos (forcing several doublings) and moves
        old ones while three others scan: no scan raises, and every
        shortlist holds distinct ids of videos that were upserted."""
        f = 4
        rng = np.random.default_rng(0)
        ids, vectors, biases = _catalog(32, f=f)
        idx, _ = _index(ids, vectors, biases)
        fresh = [(f"new{i}", rng.standard_normal(f)) for i in range(400)]
        known = set(ids) | {vid for vid, _ in fresh}
        errors: list[Exception] = []
        scanned, done = threading.Event(), threading.Event()
        sizes_seen = []

        def writer():
            try:
                for i, (vid, vec) in enumerate(fresh):
                    idx.upsert(vid, vec, 0.01 * i)
                    idx.upsert(ids[i % len(ids)], -vec, 0.0)
                    if i % 50 == 49:
                        # Let a scan finish before the next chunk, so the
                        # readers see the index at many sizes; scans still
                        # race the chunk's upserts.
                        scanned.clear()
                        scanned.wait(10)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                done.set()

        def reader():
            queries = np.random.default_rng(1).standard_normal((3, f))
            try:
                while not done.is_set():
                    for shortlist in (
                        idx.query_user(queries[0], 5),
                        idx.query_item(queries[1], 5),
                        idx.query_item(queries, 5),
                    ):
                        assert len(shortlist) == len(set(shortlist))
                        assert set(shortlist) <= known
                    sizes_seen.append(len(idx))
                    scanned.set()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                scanned.set()

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(idx) == len(known)
        # Readers saw the index at several sizes, not just before and after.
        assert len(set(sizes_seen)) > 2
