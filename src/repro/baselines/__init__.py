"""Baseline recommenders the paper compares against (§6.2, related work).

* :class:`HotRecommender` — real-time decayed popularity ("Hot");
* :class:`AssociationRuleRecommender` — daily-batch association rules ("AR");
* :class:`SimHashCFRecommender` — offline user-based CF with SimHash
  bucketing ("SimHash").
"""

from .association import AssociationRuleRecommender
from .base import Recommender
from .hot import HotRecommender
from .simhash import (
    SIGNATURE_BITS,
    SimHashCFRecommender,
    hamming_similarity,
    simhash,
    token_hash,
)

__all__ = [
    "Recommender",
    "HotRecommender",
    "AssociationRuleRecommender",
    "SimHashCFRecommender",
    "simhash",
    "token_hash",
    "hamming_similarity",
    "SIGNATURE_BITS",
]
