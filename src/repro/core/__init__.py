"""The paper's core contribution: online adjustable MF + real-time top-N.

Module map (paper section in parentheses):

* :mod:`~repro.core.actions` — action weighting (§3.2, Table 1, Eq. 6)
* :mod:`~repro.core.feedback` — binary rating + confidence (§3.2, Eq. 7)
* :mod:`~repro.core.state` — the model's state, in place of the KV
  storage (§5.1)
* :mod:`~repro.core.mf` — biased matrix factorization (§3.1, Eqs. 2-5)
* :mod:`~repro.core.online` — Algorithm 1, adjustable updates (§3.3, Eq. 8)
* :mod:`~repro.core.variants` — Binary/Conf/Combine models (§6.1.2)
* :mod:`~repro.core.similarity` — similarity factors + fusion (§4.2)
* :mod:`~repro.core.simtable` — similar-video tables (§4.2)
* :mod:`~repro.core.history` — user histories (§5.1)
* :mod:`~repro.core.candidates` — candidate selection (§4.1)
* :mod:`~repro.core.recommender` — the Figure 1 pipeline (§4.1)
* :mod:`~repro.core.demographic` — DB algorithm + filtering (§5.2.1)
* :mod:`~repro.core.grouped` — demographic training (§5.2.2)
"""

from .actions import LinearPlaytimeWeigher, LogPlaytimeWeigher, view_rate
from .annindex import AnnIndex, top_n_by_score
from .candidates import Candidate, CandidateSelector
from .demographic import (
    DemographicRecommender,
    HotVideoTracker,
    merge_recommendations,
)
from .feedback import Feedback, RatingMode, extract_feedback
from .grouped import GroupedRecommender
from .history import UserHistoryStore
from .arena import FactorArena
from .mf import MFModel, MFUpdate
from .online import OnlineTrainer
from .recommender import RealtimeRecommender, Recommendation
from .reservoir import Reservoir, ReservoirTrainer
from .similarity import (
    SimilarityScorer,
    cf_similarity,
    damping,
    fuse,
    type_similarity,
)
from .simtable import SimilarVideoTable, pair_partners
from .state import ModelState
from .variants import (
    ALL_VARIANTS,
    BINARY_MODEL,
    COMBINE_MODEL,
    CONF_MODEL,
    ModelVariant,
)

__all__ = [
    "AnnIndex",
    "top_n_by_score",
    "LogPlaytimeWeigher",
    "LinearPlaytimeWeigher",
    "view_rate",
    "Feedback",
    "RatingMode",
    "extract_feedback",
    "FactorArena",
    "MFModel",
    "MFUpdate",
    "ModelState",
    "OnlineTrainer",
    "ModelVariant",
    "BINARY_MODEL",
    "CONF_MODEL",
    "COMBINE_MODEL",
    "ALL_VARIANTS",
    "SimilarityScorer",
    "cf_similarity",
    "type_similarity",
    "damping",
    "fuse",
    "SimilarVideoTable",
    "pair_partners",
    "UserHistoryStore",
    "Candidate",
    "CandidateSelector",
    "RealtimeRecommender",
    "Recommendation",
    "Reservoir",
    "ReservoirTrainer",
    "HotVideoTracker",
    "DemographicRecommender",
    "merge_recommendations",
    "GroupedRecommender",
]
