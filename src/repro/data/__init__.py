"""Data substrate: schemas, the synthetic world, stream splits, stats."""

from .schema import GLOBAL_GROUP, ActionType, User, UserAction, Video
from .stats import DatasetStats, dataset_stats, group_stats
from .stream import (
    ENGAGEMENT_ACTIONS,
    TrainTestSplit,
    day_of,
    filter_active,
    replay,
    split_by_day,
)
from .synthetic import SyntheticWorld, WorldConfig

__all__ = [
    "ActionType",
    "User",
    "UserAction",
    "Video",
    "GLOBAL_GROUP",
    "SyntheticWorld",
    "WorldConfig",
    "TrainTestSplit",
    "ENGAGEMENT_ACTIONS",
    "filter_active",
    "split_by_day",
    "day_of",
    "replay",
    "DatasetStats",
    "dataset_stats",
    "group_stats",
]
