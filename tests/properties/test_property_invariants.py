"""Property-based tests (hypothesis) for the library's core invariants."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import ActionWeightConfig, MFConfig
from repro.core import (
    LogPlaytimeWeigher,
    MFModel,
    cf_similarity,
    damping,
    fuse,
)
from repro.data import ActionType, UserAction, Video
from repro.eval import percentile_rank, recall_at_n
from repro.hashing import stable_bucket, stable_hash

ids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)


class TestHashingProperties:
    @given(key=st.one_of(ids, st.integers(), st.tuples(ids, ids)))
    def test_stable_hash_is_pure(self, key):
        assert stable_hash(key) == stable_hash(key)

    @given(key=ids, buckets=st.integers(min_value=1, max_value=1024))
    def test_bucket_in_range(self, key, buckets):
        assert 0 <= stable_bucket(key, buckets) < buckets


class TestWeightProperties:
    weigher = LogPlaytimeWeigher()
    video = Video("v", "t", duration=1000.0)

    @given(vrate=st.floats(min_value=0.001, max_value=1.0))
    def test_playtime_weight_bounded(self, vrate):
        """w in [a - b, a] for every view rate (floor included)."""
        cfg = ActionWeightConfig()
        action = UserAction(
            0.0, "u", "v", ActionType.PLAYTIME, view_time=vrate * 1000.0
        )
        w = self.weigher.weight(action, self.video)
        assert cfg.a - cfg.b - 1e-9 <= w <= cfg.a + 1e-9

    @given(
        v1=st.floats(min_value=0.001, max_value=1.0),
        v2=st.floats(min_value=0.001, max_value=1.0),
    )
    def test_playtime_weight_monotone(self, v1, v2):
        lo, hi = sorted((v1, v2))
        a1 = UserAction(0.0, "u", "v", ActionType.PLAYTIME, view_time=lo * 1000)
        a2 = UserAction(0.0, "u", "v", ActionType.PLAYTIME, view_time=hi * 1000)
        assert self.weigher.weight(a1, self.video) <= self.weigher.weight(
            a2, self.video
        ) + 1e-12

    @given(vrate=st.floats(min_value=0.001, max_value=1.0))
    def test_weights_never_negative(self, vrate):
        action = UserAction(
            0.0, "u", "v", ActionType.PLAYTIME, view_time=vrate * 1000.0
        )
        assert self.weigher.weight(action, self.video) >= 0.0


class TestSimilarityProperties:
    @given(
        elapsed=st.floats(min_value=0, max_value=1e7),
        xi=st.floats(min_value=1.0, max_value=1e6),
    )
    def test_damping_in_unit_interval(self, elapsed, xi):
        d = damping(elapsed, xi)
        assert 0.0 <= d <= 1.0

    @given(
        t1=st.floats(min_value=0, max_value=1e6),
        t2=st.floats(min_value=0, max_value=1e6),
        xi=st.floats(min_value=1.0, max_value=1e5),
    )
    def test_damping_monotone(self, t1, t2, xi):
        lo, hi = sorted((t1, t2))
        assert damping(hi, xi) <= damping(lo, xi)

    @given(
        xi=st.floats(min_value=1.0, max_value=1e5),
        half_lives=st.floats(min_value=0.0, max_value=1000.0),
    )
    @example(xi=95.0, half_lives=1000.0)
    def test_damping_half_life_identity(self, xi, half_lives):
        """d(t + xi) == d(t) / 2, wherever both sides are normal floats.

        ``elapsed`` is drawn as a number of half-lives capped at 1000, so
        ``d >= 2^-1001`` stays above the smallest normal double (2^-1022).
        Past that — e.g. ``xi=95.0, elapsed=99999.0``, ~1053 half-lives —
        ``d`` is subnormal, carries fewer than 53 bits, and the identity
        cannot hold to ``rel_tol=1e-9``; that corner is excluded by
        construction (``damping`` is right there, the float format is not).
        """
        elapsed = half_lives * xi
        assert math.isclose(
            damping(elapsed + xi, xi),
            damping(elapsed, xi) / 2,
            rel_tol=1e-9,
        )

    @given(
        s1=st.floats(min_value=-10, max_value=10),
        s2=st.floats(min_value=0, max_value=1),
        beta=st.floats(min_value=0, max_value=1),
    )
    def test_fusion_between_components(self, s1, s2, beta):
        fused = fuse(s1, s2, beta)
        assert min(s1, s2) - 1e-9 <= fused <= max(s1, s2) + 1e-9

    @given(
        vec=st.lists(
            st.floats(min_value=-5, max_value=5), min_size=2, max_size=16
        )
    )
    def test_cf_similarity_symmetric(self, vec):
        y1 = np.array(vec)
        y2 = np.array(vec[::-1])
        assert cf_similarity(y1, y2) == cf_similarity(y2, y1)


class TestMetricProperties:
    @given(
        recs=st.lists(ids, min_size=1, max_size=15, unique=True),
        liked=st.sets(ids, min_size=1, max_size=15),
        n=st.integers(min_value=1, max_value=15),
    )
    def test_recall_bounded(self, recs, liked, n):
        value = recall_at_n({"u": recs}, {"u": liked}, n)
        assert 0.0 <= value <= 1.0

    @given(
        recs=st.lists(ids, min_size=1, max_size=15, unique=True),
        liked=st.sets(ids, min_size=1, max_size=15),
    )
    def test_recall_hits_monotone_in_n(self, recs, liked):
        """The absolute hit count never drops as N grows."""
        hits = [
            recall_at_n({"u": recs}, {"u": liked}, n) * n
            for n in range(1, len(recs) + 1)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(hits, hits[1:]))

    @given(
        length=st.integers(min_value=1, max_value=100),
        data=st.data(),
    )
    def test_percentile_rank_bounds(self, length, data):
        position = data.draw(st.integers(min_value=0, max_value=length - 1))
        assert 0.0 <= percentile_rank(position, length) < 1.0


class TestMFProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        rating=st.floats(min_value=0.0, max_value=3.5),
        eta=st.floats(min_value=0.001, max_value=0.2),
    )
    def test_small_step_reduces_error(self, rating, eta):
        model = MFModel(MFConfig(f=4, init_scale=0.1, lam=0.0, seed=1))
        model.ensure_user("u")
        model.ensure_video("v")
        before = model.error("u", "v", rating)
        model.sgd_step("u", "v", rating, eta)
        after = model.error("u", "v", rating)
        assert abs(after) <= abs(before) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_init_idempotent_across_models(self, seed):
        m1 = MFModel(MFConfig(f=6, seed=seed))
        m2 = MFModel(MFConfig(f=6, seed=seed))
        assert np.array_equal(m1.ensure_user("uX"), m2.ensure_user("uX"))
