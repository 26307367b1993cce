"""The two bulk paths of ``"ann"`` mode: loading a catalog with
``MFModel.put_params_many`` and building the retrieval mirror with
``rebuild_index``.

Both are checked for what they compute — a bulk load equals sequential
puts, the mirror equals ``video_rows()`` cast to float32 — and for what
they allocate.  The memory budgets are ``tracemalloc`` ratios of peak to
kept bytes, so they do not depend on the host's speed or on the process's
resident size.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MFConfig, ReproConfig, RetrievalConfig
from repro.core import MFModel, RealtimeRecommender
from repro.core.arena import _BLOCK
from repro.errors import ModelError
from tests.support.world import mirror_rows, stored_rows

F = 4


def _vec(value, f=F):
    return np.full(f, float(value))


def _catalog(n, f, seed=0):
    """``(kind, id, vector, bias)`` video records, ids in shuffled order so
    the arena's first-touch rows differ from the sorted export order."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, f))
    biases = rng.standard_normal(n)
    return [
        ("video", f"v{i:07d}", vectors[i], float(biases[i]))
        for i in rng.permutation(n)
    ]


def _put(model, kind, entity_id, vector, bias):
    """One sequential write through the model's per-kind ``put``."""
    put = model.put_user if kind == "user" else model.put_video
    put(entity_id, vector, bias)


def _ann_recommender(f):
    return RealtimeRecommender(
        {},
        config=ReproConfig(mf=MFConfig(f=f), retrieval=RetrievalConfig(mode="ann")),
        enable_demographic=False,
    )


class TestAllOrNothing:
    BAD_THIRD = [
        ("video", "v1", _vec(1), 0.1),
        ("video", "v2", _vec(2), 0.2),
        ("video", "v3", np.zeros(F + 1), 0.3),
    ]

    def test_existing_arena_is_left_untouched(self):
        model = MFModel(MFConfig(f=F))
        model.put_video("v0", _vec(9), 0.9)
        with pytest.raises(ValueError, match="shape"):
            model.put_params_many(self.BAD_THIRD)
        ids, vectors, biases = model.video_rows()
        assert ids == ["v0"]
        np.testing.assert_array_equal(vectors, [_vec(9)])
        assert biases.tolist() == [0.9]

    def test_fresh_arena_gets_nothing(self):
        model = MFModel(MFConfig(f=F))
        with pytest.raises(ValueError, match="shape"):
            model.put_params_many(self.BAD_THIRD)
        assert model.n_videos == 0

    def test_a_bad_record_of_one_kind_blocks_the_other(self):
        model = MFModel(MFConfig(f=F))
        model.put_user("u0", _vec(5), 0.5)
        with pytest.raises(ValueError, match="shape"):
            model.put_params_many(
                [("user", "u1", _vec(1), 0.1), ("video", "v1", _vec(1)[:2], 0.0)]
            )
        with pytest.raises(ModelError, match="kind"):
            model.put_params_many(
                [("user", "u1", _vec(1), 0.1), ("item", "v1", _vec(1), 0.0)]
            )
        assert model.n_users == 1 and model.n_videos == 0
        assert model.user_vector("u1") is None


records = st.lists(
    st.tuples(
        st.sampled_from(["user", "video"]),
        st.sampled_from([f"e{i}" for i in range(8)]),
        st.integers(-50, 50),
        st.integers(-50, 50),
    ),
    max_size=40,
)


class TestBulkEqualsSequential:
    @settings(max_examples=60, deadline=None)
    @given(existing=records, batch=records)
    def test_bulk_load_equals_sequential_puts(self, existing, batch):
        """Duplicates (later wins), mixed kinds and ids already stored: one
        ``put_params_many`` leaves exactly what a ``put`` per record does."""
        items = [(kind, eid, _vec(v), b / 8) for kind, eid, v, b in batch]
        bulk, sequential = MFModel(MFConfig(f=F)), MFModel(MFConfig(f=F))
        for model in (bulk, sequential):
            for kind, eid, value, bias in existing:
                _put(model, kind, eid, _vec(value), float(bias))
        bulk.put_params_many(items)
        for record in items:
            _put(sequential, *record)
        for kind in ("user", "video"):
            got_ids, *got = stored_rows(bulk, kind)
            want_ids, *want = stored_rows(sequential, kind)
            assert got_ids == want_ids
            for mine, theirs in zip(got, want):
                assert mine.tobytes() == theirs.tobytes()


def _arena_bytes(model, kind):
    """One arena as its checkpoint holds it: ids in row order, then the
    rows' vector and bias bytes."""
    state = model._arena(kind).__getstate__()
    return state["ids"], state["vecs"].tobytes(), state["biases"].tobytes()


class TestBlockScale:
    """``put_params_many`` against a ``put`` per record over more than two
    blocks: a block with a repeated id, a repeat across a block boundary,
    a block of fresh distinct ids, a block holding an id already stored,
    user records between the video records, and vectors given as lists,
    float32 arrays and int arrays."""

    N = 3 * _BLOCK + 100
    STORED = [("video", "v0000050", _vec(7), 0.7), ("user", "u3", _vec(8), 0.8)]

    def _batch(self):
        rng = np.random.default_rng(11)
        ids = [f"v{i + 100:07d}" for i in range(self.N)]
        ids[10] = ids[3]  # a repeat inside the first block
        ids[_BLOCK] = ids[_BLOCK - 1]  # a repeat across a block boundary
        ids[3 * _BLOCK + 7] = "v0000050"  # stored before the batch
        forms = (
            lambda v: v.tolist(),
            lambda v: v.astype(np.float32),
            lambda v: np.rint(v * 10).astype(np.int64),
        )
        items = [
            ("video", vid, forms[i % 3](rng.standard_normal(F)), i / 64)
            for i, vid in enumerate(ids)
        ]
        for i in range(40):  # users, some repeated and one stored
            vector = forms[i % 3](rng.standard_normal(F))
            items.insert(i * 300, ("user", f"u{i % 25}", vector, -i / 8))
        return items

    def _models(self):
        bulk, sequential = MFModel(MFConfig(f=F)), MFModel(MFConfig(f=F))
        for model in (bulk, sequential):
            for record in self.STORED:
                _put(model, *record)
        return bulk, sequential

    def test_bulk_load_equals_a_put_per_record(self):
        items = self._batch()
        bulk, sequential = self._models()
        bulk.put_params_many(items)
        for record in items:
            _put(sequential, *record)
        assert bulk.n_videos == self.N - 2
        for kind in ("user", "video"):
            assert _arena_bytes(bulk, kind) == _arena_bytes(sequential, kind)

    @pytest.mark.parametrize(
        "bad",
        [
            ("video", "v-bad", np.zeros(F + 1), 0.0),
            ("item", "v-bad", _vec(1), 0.0),
        ],
    )
    def test_a_bad_record_in_the_last_block_leaves_both_arenas_untouched(
        self, bad
    ):
        items = self._batch() + [bad]
        model, _ = self._models()
        before = {kind: _arena_bytes(model, kind) for kind in ("user", "video")}
        with pytest.raises((ValueError, ModelError)):
            model.put_params_many(items)
        for kind in ("user", "video"):
            assert _arena_bytes(model, kind) == before[kind]


class TestMirror:
    def test_mirror_is_video_rows_cast_to_float32_in_sorted_order(self):
        n = 2 * _BLOCK + 17  # a partial last block
        rec = _ann_recommender(f=8)
        rec.model.put_params_many(_catalog(n, 8))
        assert rec.rebuild_index()["indexed"] == n
        ids, matrix, bias = mirror_rows(rec.index)
        want_ids, vectors, biases = rec.model.video_rows()
        assert ids == want_ids == sorted(want_ids)
        assert matrix.dtype == bias.dtype == np.float32
        assert matrix.tobytes() == vectors.astype(np.float32).tobytes()
        assert bias.tobytes() == biases.astype(np.float32).tobytes()


def _traced(fn):
    """``(kept, peak)`` bytes that ``fn`` allocates, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    """At 50k videos x f=32 (one quarter of e2e ``large_catalog_ann``).

    Before the bulk paths streamed, ``rebuild_index`` peaked at 2.9x what
    it kept (a float64 export, its sorted copy and a second float32
    matrix) and ``put_params_many`` at 1.5x (a per-kind list, and growth
    by doubling that also left spare rows)."""

    N, F = 50_000, 32

    def test_bulk_load_peaks_within_15_percent_of_what_it_keeps(self):
        rec = _ann_recommender(self.F)
        items = _catalog(self.N, self.F)
        kept, peak = _traced(lambda: rec.model.put_params_many(items))
        assert rec.model.n_videos == self.N
        assert kept >= self.N * self.F * 8  # the float64 arena itself
        assert peak <= 1.15 * kept, (peak, kept)

    def test_rebuild_index_peaks_within_25_percent_of_what_it_keeps(self):
        rec = _ann_recommender(self.F)
        rec.model.put_params_many(_catalog(self.N, self.F))
        kept, peak = _traced(rec.rebuild_index)
        assert len(rec.index) == self.N
        assert kept >= self.N * self.F * 4  # the float32 mirror itself
        assert peak <= 1.25 * kept, (peak, kept)
