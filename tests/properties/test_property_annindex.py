"""Property-based tests for the factor-scan retrieval index: after any
sequence of upserts that move rows, add rows and grow the arrays, a user
shortlist re-ranked by ``predict_many`` is the exhaustive Eq. 2 top-``n``
of the whole catalog, and an item shortlist is the exhaustive cosine
top-``OVERFETCH * n``.

Factors and biases are drawn on a grid of quarter units, which float32
holds exactly: the float32 scan and the float64 reference then score
every video identically, so the comparisons are equalities, ties
included."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MFConfig
from repro.core import AnnIndex, MFModel, top_n_by_score
from repro.core.annindex import OVERFETCH

F = 3
POOL = [f"v{i:03d}" for i in range(40)]

vectors = st.lists(st.integers(-6, 6), min_size=F, max_size=F).map(
    lambda v: np.array(v, dtype=np.float64) / 4
)
biases = st.integers(-8, 8).map(lambda b: b / 4)
catalogs = st.dictionaries(
    st.sampled_from(POOL), st.tuples(vectors, biases), max_size=25
)
upserts = st.lists(
    st.tuples(st.sampled_from(POOL), vectors, biases), max_size=15
)


def _filler(count: int):
    """``count`` new videos on the grid: enough of them outgrow the index's
    initial 64 rows."""
    rng = np.random.default_rng(count)
    return [
        (f"w{i:03d}", rng.integers(-6, 7, F) / 4, float(rng.integers(-8, 9)) / 4)
        for i in range(count)
    ]


def _eq2_top(model: MFModel, user: str, pool: list[str], n: int) -> list[str]:
    """The serving path's stage 2: ``predict_many``, ``(score desc, id asc)``."""
    scores = model.predict_many(user, pool)
    order = sorted(range(len(pool)), key=lambda i: (-scores[i], pool[i]))
    return [pool[i] for i in order[:n]]


def _cosine_top(model: MFModel, y: np.ndarray, pool: list[str], k: int):
    rows = np.array([model.video_vector(vid) for vid in pool]).reshape(-1, F)
    denom = np.linalg.norm(rows, axis=1) * np.linalg.norm(y)
    dots = rows @ y
    cosine = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    return sorted(vid for vid, _ in top_n_by_score(pool, cosine, k))


class TestExactContract:
    @settings(max_examples=60, deadline=None)
    @given(
        catalog=catalogs,
        moves=upserts,
        grow=st.integers(0, 80),
        late=upserts,
        x_u=vectors,
        b_u=biases,
        y=vectors,
        exclude=st.sets(st.sampled_from(POOL)),
        n=st.integers(1, 12),
    )
    def test_shortlists_equal_the_exhaustive_rankings(
        self, catalog, moves, grow, late, x_u, b_u, y, exclude, n
    ):
        model = MFModel(MFConfig(f=F))
        model.put_params_many(
            [("video", vid, vec, b) for vid, (vec, b) in catalog.items()]
            + [("user", "u", x_u, b_u)]
        )
        idx = AnnIndex(F)
        idx.build_from_model(model)
        steps = [[], *([op] for op in moves), _filler(grow), *([op] for op in late)]
        for step in steps:
            for vid, vec, b in step:
                model.put_video(vid, vec, b)
                idx.upsert(vid, vec, b)

            pool = [v for v in model.video_rows()[0] if v not in exclude]
            assert len(idx) == len(model.video_rows()[0])
            shortlist = idx.query_user(x_u, n, exclude=exclude)
            assert shortlist == sorted(set(shortlist))
            assert _eq2_top(model, "u", shortlist, n) == _eq2_top(
                model, "u", pool, n
            )
            assert idx.query_item(y, n, exclude=exclude) == _cosine_top(
                model, y, pool, OVERFETCH * n
            )


class TestMembership:
    @settings(max_examples=40, deadline=None)
    @given(ops=upserts)
    def test_matches_dict_reference_under_any_interleaving(self, ops):
        idx = AnnIndex(F)
        reference: dict[str, np.ndarray] = {}
        for vid, vec, b in ops:
            idx.upsert(vid, vec, b)
            reference[vid] = vec
        assert len(idx) == len(reference)
        for vid in POOL:
            assert (vid in idx) == (vid in reference)
        # Every member with a direction retrieves itself (cosine 1).
        for vid, vec in reference.items():
            if np.any(vec):
                assert vid in idx.query_item(vec, len(reference))


class TestShortlistInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        catalog=catalogs,
        query=vectors,
        exclude=st.sets(st.sampled_from(POOL)),
        n=st.integers(1, 20),
    )
    def test_subset_of_catalog_and_respects_exclude(
        self, catalog, query, exclude, n
    ):
        idx = AnnIndex(F)
        for vid, (vec, b) in catalog.items():
            idx.upsert(vid, vec, b)
        for shortlist in (
            idx.query_user(query, n, exclude=exclude),
            idx.query_item(query, n, exclude=exclude),
        ):
            assert set(shortlist) <= set(catalog) - exclude
            assert shortlist == sorted(set(shortlist))
            assert len(shortlist) == min(
                OVERFETCH * n, len(set(catalog) - exclude)
            )
