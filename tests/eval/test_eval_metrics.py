"""Tests for the evaluation metrics (Eqs. 13-14)."""

import pytest

from repro.eval import (
    average_rank,
    percentile_rank,
    recall_at_n,
    recall_curve,
)


class TestRecallAtN:
    def test_eq13_definition(self):
        """recall = mean over users of |liked ∩ topN| / N."""
        recommended = {"u1": ["a", "b", "c"], "u2": ["x", "y", "z"]}
        liked = {"u1": {"a", "b"}, "u2": {"q"}}
        # u1: 2/3 hits, u2: 0/3 -> mean = 1/3
        assert recall_at_n(recommended, liked, n=3) == pytest.approx(1 / 3)

    def test_divides_by_n_not_list_length(self):
        recommended = {"u1": ["a"]}  # short list
        liked = {"u1": {"a"}}
        assert recall_at_n(recommended, liked, n=10) == pytest.approx(0.1)

    def test_users_without_likes_excluded(self):
        recommended = {"u1": ["a"], "u2": ["b"]}
        liked = {"u1": {"a"}, "u2": set()}
        assert recall_at_n(recommended, liked, n=1) == 1.0

    def test_user_missing_from_recommendations_scores_zero(self):
        assert recall_at_n({}, {"u1": {"a"}}, n=5) == 0.0

    def test_empty_test_set(self):
        assert recall_at_n({"u": ["a"]}, {}, n=5) == 0.0

    def test_bounds(self):
        recommended = {"u": [f"v{i}" for i in range(10)]}
        liked = {"u": {f"v{i}" for i in range(20)}}
        assert 0.0 <= recall_at_n(recommended, liked, 10) <= 1.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            recall_at_n({}, {"u": {"a"}}, n=0)

    def test_curve_monotone_in_hits_not_value(self):
        """recall@N uses prefix truncation: the hit count is non-decreasing
        in N even though the ratio may fall."""
        recommended = {"u": ["a", "x", "b", "y"]}
        liked = {"u": {"a", "b"}}
        curve = recall_curve(recommended, liked, max_n=4)
        hits = [curve[n] * n for n in range(1, 5)]
        assert hits == sorted(hits)
        assert curve[1] == 1.0
        assert curve[2] == pytest.approx(0.5)


class TestPercentileRank:
    def test_first_is_zero(self):
        assert percentile_rank(0, 10) == 0.0

    def test_last_below_one(self):
        """Absence ranks 1.0, strictly worse than any listed position."""
        assert percentile_rank(9, 10) == pytest.approx(0.9)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile_rank(10, 10)
        with pytest.raises(ValueError):
            percentile_rank(-1, 10)


class TestAverageRank:
    def test_perfect_model_scores_low(self):
        """Recommending the test list in its exact order gives a low rank."""
        test_ranking = {"u": ["a", "b", "c", "d"]}
        good = {"u": ["a", "b", "c", "d"]}
        bad = {"u": ["d", "c", "b", "a"]}
        assert average_rank(good, test_ranking) < average_rank(bad, test_ranking)

    def test_bounds(self):
        test_ranking = {"u": ["a", "b"]}
        recommended = {"u": ["b", "z", "a"]}
        assert 0.0 <= average_rank(recommended, test_ranking) <= 1.0

    def test_nothing_recommended_is_worst(self):
        assert average_rank({}, {"u": ["a", "b"]}) == 1.0

    def test_non_test_recommendations_carry_no_weight(self):
        """Videos the user never engaged with in test drop out of both
        sums (rank_ui = 1 => weight 0 for unrecommended test videos is the
        only channel)."""
        test_ranking = {"u": ["a"]}
        only_miss = {"u": ["x", "y"]}
        assert average_rank(only_miss, test_ranking) == 1.0

    def test_weight_decreases_with_recommendation_position(self):
        """A test video recommended at the top dominates one at the bottom."""
        test_ranking = {"u1": ["good", "bad"]}
        top_good = {"u1": ["good", "z1", "z2", "bad"]}
        top_bad = {"u1": ["bad", "z1", "z2", "good"]}
        assert average_rank(top_good, test_ranking) < average_rank(
            top_bad, test_ranking
        )

    def test_matches_hand_computation(self):
        test_ranking = {"u": ["a", "b"]}  # rank^t: a=0, b=0.5
        recommended = {"u": ["b", "a"]}  # rank: b=0, a=0.5
        # weights: b -> 1-0 = 1, a -> 1-0.5 = 0.5
        # rank = (0.5*1 + 0*0.5) / (1 + 0.5) = 1/3
        assert average_rank(recommended, test_ranking) == pytest.approx(1 / 3)
