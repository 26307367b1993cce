"""Tests for similarity factors and fusion (Eqs. 9-12)."""

import numpy as np
import pytest

from repro.config import SimilarityConfig
from repro.core import (
    SimilarityScorer,
    cf_similarity,
    damping,
    fuse,
    type_similarity,
)
from repro.data import Video

COMEDY_A = Video("a", "comedy", 100.0)
COMEDY_B = Video("b", "comedy", 200.0)
DRAMA = Video("c", "drama", 300.0)


class TestCFSimilarity:
    def test_inner_product(self):
        assert cf_similarity(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_orthogonal_is_zero(self):
        assert cf_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_symmetric(self):
        y1, y2 = np.array([0.3, -0.2]), np.array([0.1, 0.9])
        assert cf_similarity(y1, y2) == cf_similarity(y2, y1)


class TestTypeSimilarity:
    def test_same_type_is_one(self):
        assert type_similarity(COMEDY_A, COMEDY_B) == 1.0

    def test_different_type_is_zero(self):
        assert type_similarity(COMEDY_A, DRAMA) == 0.0


class TestDamping:
    def test_no_elapsed_time_no_decay(self):
        assert damping(0.0, xi=100.0) == 1.0

    def test_halves_every_xi(self):
        """Eq. 11: d = 2^(-dt/xi)."""
        assert damping(100.0, xi=100.0) == pytest.approx(0.5)
        assert damping(200.0, xi=100.0) == pytest.approx(0.25)

    def test_monotone_decreasing(self):
        values = [damping(t, xi=50.0) for t in (0, 10, 100, 1000)]
        assert values == sorted(values, reverse=True)

    def test_bounded_in_unit_interval(self):
        # Very large elapsed times may underflow to exactly 0.0 — fine.
        for t in (0.0, 1.0, 1e6):
            assert 0.0 <= damping(t, xi=100.0) <= 1.0
        assert damping(10.0, xi=100.0) > 0.0

    def test_negative_elapsed_clamped(self):
        """Clock skew must not amplify similarities."""
        assert damping(-50.0, xi=100.0) == 1.0

    def test_invalid_xi(self):
        with pytest.raises(ValueError):
            damping(1.0, xi=0.0)


class TestFusion:
    def test_convex_combination(self):
        """Eq. 12 inner term: (1-beta)*s1 + beta*s2."""
        assert fuse(1.0, 0.0, beta=0.2) == pytest.approx(0.8)
        assert fuse(0.0, 1.0, beta=0.2) == pytest.approx(0.2)

    def test_beta_zero_is_pure_cf(self):
        assert fuse(0.7, 1.0, beta=0.0) == pytest.approx(0.7)

    def test_beta_one_is_pure_type(self):
        assert fuse(0.7, 1.0, beta=1.0) == pytest.approx(1.0)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            fuse(0.5, 0.5, beta=-0.1)


class TestSimilarityScorer:
    @pytest.fixture
    def scorer(self):
        return SimilarityScorer(SimilarityConfig(beta=0.25, xi=100.0))

    def test_raw_relevance_combines_factors(self, scorer):
        y = np.array([1.0, 0.0])
        raw_same = scorer.raw_relevance(COMEDY_A, y, COMEDY_B, y)
        raw_diff = scorer.raw_relevance(COMEDY_A, y, DRAMA, y)
        # identical vectors: s1 = 1; same type adds beta * 1
        assert raw_same == pytest.approx(0.75 * 1.0 + 0.25 * 1.0)
        assert raw_diff == pytest.approx(0.75 * 1.0)

    def test_damped_relevance(self, scorer):
        assert scorer.damped(1.0, elapsed=100.0) == pytest.approx(0.5)

    def test_full_relevance_eq12(self, scorer):
        y1, y2 = np.array([0.5, 0.5]), np.array([0.5, -0.5])
        raw = scorer.raw_relevance(COMEDY_A, y1, COMEDY_B, y2)
        full = scorer.damped(raw, elapsed=100.0)
        assert full == pytest.approx(raw * 0.5)

    def test_stale_similarity_forgotten(self, scorer):
        """After many half-lives the relevance is negligible — 'the past
        similar videos should be gradually forgotten'."""
        y = np.array([1.0, 0.0])
        raw = scorer.raw_relevance(COMEDY_A, y, COMEDY_B, y)
        assert scorer.damped(raw, elapsed=10_000.0) < 1e-20
