"""The paper's Figure 2 recommendation topology on the Storm substrate."""

from .bolts import (
    PAIR_STREAM,
    SIM_STREAM,
    USER_VEC_STREAM,
    VIDEO_VEC_STREAM,
    ComputeMFBolt,
    GetItemPairsBolt,
    ItemPairSimBolt,
    MFStorageBolt,
    ResultStorageBolt,
    UserHistoryBolt,
)
from .pipeline import (
    COMPUTE_MF,
    DEFAULT_PARALLELISM,
    GET_ITEM_PAIRS,
    ITEM_PAIR_SIM,
    MF_STORAGE,
    RESULT_STORAGE,
    SPOUT,
    USER_HISTORY,
    RecommendationSystem,
    build_recommendation_topology,
)
from .spout import ActionSpout, SharedSource, action_tuple

__all__ = [
    "ActionSpout",
    "SharedSource",
    "action_tuple",
    "ComputeMFBolt",
    "MFStorageBolt",
    "UserHistoryBolt",
    "GetItemPairsBolt",
    "ItemPairSimBolt",
    "ResultStorageBolt",
    "USER_VEC_STREAM",
    "VIDEO_VEC_STREAM",
    "PAIR_STREAM",
    "SIM_STREAM",
    "build_recommendation_topology",
    "RecommendationSystem",
    "DEFAULT_PARALLELISM",
    "SPOUT",
    "USER_HISTORY",
    "COMPUTE_MF",
    "MF_STORAGE",
    "GET_ITEM_PAIRS",
    "ITEM_PAIR_SIM",
    "RESULT_STORAGE",
]
