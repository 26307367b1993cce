"""Tests for the AR (association rule) baseline."""

import pytest

from repro.baselines import AssociationRuleRecommender
from repro.data import ActionType, UserAction


def _click(user, video, ts):
    return UserAction(ts, user, video, ActionType.CLICK)


def _n_rules(ar):
    return sum(len(rules) for rules in ar._rules.values())


def _feed_baskets(ar, baskets, gap=10_000.0):
    """Feed each basket as one tight session per synthetic user."""
    for i, basket in enumerate(baskets):
        base = i * gap * 10
        for j, video in enumerate(basket):
            ar.observe(_click(f"u{i}", video, base + j))


class TestMining:
    def test_cooccurring_videos_produce_rules(self):
        ar = AssociationRuleRecommender(min_support=2, min_confidence=0.1)
        _feed_baskets(ar, [["a", "b"], ["a", "b"], ["a", "c"]])
        ar.retrain(now=0.0)
        assert _n_rules(ar) > 0
        recs = ar.recommend_ids("u9", current_video="a", n=2)
        assert recs[0] == "b"  # conf(a->b)=2/3 beats conf(a->c)=1/3

    def test_min_support_filters_rare_pairs(self):
        ar = AssociationRuleRecommender(min_support=2, min_confidence=0.0)
        _feed_baskets(ar, [["a", "b"]])
        ar.retrain(now=0.0)
        assert ar.recommend_ids("u9", current_video="a", n=5) == []

    def test_min_confidence_filters_weak_rules(self):
        ar = AssociationRuleRecommender(min_support=1, min_confidence=0.9)
        # a appears in 3 baskets, with b only once: conf(a->b) = 1/3 < 0.9
        _feed_baskets(ar, [["a", "b"], ["a", "c"], ["a", "d"]])
        ar.retrain(now=0.0)
        assert ar.recommend_ids("u9", current_video="a", n=5) == []

    def test_sessionisation_splits_by_gap(self):
        ar = AssociationRuleRecommender(
            min_support=1, min_confidence=0.0, session_gap=100.0
        )
        # same user, two far-apart engagements: separate sessions, no pair
        ar.observe(_click("u1", "a", 0.0))
        ar.observe(_click("u1", "b", 10_000.0))
        ar.retrain(now=0.0)
        assert _n_rules(ar) == 0

    def test_rules_directional_confidence(self):
        ar = AssociationRuleRecommender(min_support=1, min_confidence=0.0)
        # a in 3 baskets, b in 1: conf(b->a)=1 > conf(a->b)=1/3
        _feed_baskets(ar, [["a", "b"], ["a", "x"], ["a", "y"]])
        ar.retrain(now=0.0)
        rules = ar._rules
        conf_ab = dict(rules["a"]).get("b", 0.0)
        conf_ba = dict(rules["b"]).get("a", 0.0)
        assert conf_ba == pytest.approx(1.0)
        assert conf_ab == pytest.approx(1 / 3)

    def test_untrained_model_returns_nothing(self):
        ar = AssociationRuleRecommender()
        ar.observe(_click("u", "a", 0.0))
        assert ar.recommend_ids("u", current_video="a", n=5) == []

    def test_batch_semantics_ignore_new_data_until_retrain(self):
        """Daily batch training: new actions only count after retrain."""
        ar = AssociationRuleRecommender(min_support=1, min_confidence=0.0)
        _feed_baskets(ar, [["a", "b"]])
        ar.retrain(now=1.0)
        before = _n_rules(ar)
        _feed_baskets(ar, [["a", "c"], ["a", "c"]])
        assert _n_rules(ar) == before
        ar.retrain(now=2.0)
        assert _n_rules(ar) > before


class TestServing:
    def test_seeds_from_history_when_not_watching(self):
        ar = AssociationRuleRecommender(min_support=1, min_confidence=0.0, exclude_watched=False)
        _feed_baskets(ar, [["a", "b"], ["a", "b"]])
        ar.observe(_click("me", "a", 1e9))
        ar.retrain(now=0.0)
        assert "b" in ar.recommend_ids("me", n=3)

    def test_watched_videos_excluded(self):
        ar = AssociationRuleRecommender(min_support=1, min_confidence=0.0)
        _feed_baskets(ar, [["a", "b"], ["a", "b"]])
        ar.observe(_click("me", "a", 1e9))
        ar.observe(_click("me", "b", 1e9 + 1))
        ar.retrain(now=0.0)
        assert "b" not in ar.recommend_ids("me", n=3)

    def test_scores_aggregate_over_seeds(self):
        ar = AssociationRuleRecommender(min_support=1, min_confidence=0.0, exclude_watched=False)
        _feed_baskets(ar, [["a", "c"], ["b", "c"], ["a", "x"]])
        ar.observe(_click("me", "a", 1e9))
        ar.observe(_click("me", "b", 1e9 + 1))
        ar.retrain(now=0.0)
        recs = ar.recommend_ids("me", n=1)
        assert recs == ["c"]  # supported by both seeds

    def test_validation(self):
        with pytest.raises(ValueError):
            AssociationRuleRecommender(min_support=0)
        with pytest.raises(ValueError):
            AssociationRuleRecommender(min_confidence=2.0)
