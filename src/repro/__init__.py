"""repro — reproduction of *Real-time Video Recommendation Exploration*
(Huang, Cui, Jiang, Hong, Zhang, Xie; SIGMOD 2016).

The package implements Tencent Video's production real-time recommender as
described in the paper, plus every substrate it depends on:

* :mod:`repro.core` — online adjustable MF for implicit feedback,
  similar-video tables, real-time top-N generation, demographic
  optimizations (the paper's contribution);
* :mod:`repro.storm` — a Storm-like stream-processing engine;
* :mod:`repro.topology` — the paper's Figure 2 topology on that engine;
* :mod:`repro.data` — the action schema and synthetic Tencent-like
  workloads;
* :mod:`repro.baselines` — the Hot / AR / SimHash comparators of §6.2;
* :mod:`repro.eval` — recall@N, average rank, the offline protocol, grid
  search and the simulated A/B test;
* :mod:`repro.obs` — the observability layer: one metrics registry,
  causally-linked trace spans along the serving path,
  and the JSON perf-regression harness.

Quickstart::

    from repro import RealtimeRecommender, SyntheticWorld

    world = SyntheticWorld()
    rec = RealtimeRecommender(world.videos, users=world.users)
    for action in world.generate_actions(days=6):
        rec.observe(action)
    print(rec.recommend_ids("u0", n=10))
"""

from .clock import SECONDS_PER_DAY, Clock, SystemClock, VirtualClock
from .config import (
    ActionWeightConfig,
    MFConfig,
    OnlineConfig,
    RecommendConfig,
    ReproConfig,
    SimilarityConfig,
)
from .core import (
    ALL_VARIANTS,
    BINARY_MODEL,
    COMBINE_MODEL,
    CONF_MODEL,
    GroupedRecommender,
    MFModel,
    OnlineTrainer,
    RealtimeRecommender,
    Recommendation,
    SimilarVideoTable,
)
from .data import (
    ActionType,
    SyntheticWorld,
    User,
    UserAction,
    Video,
    WorldConfig,
)
from .errors import ReproError
from .obs import MetricsRegistry, Observability, Tracer

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ReproConfig",
    "ActionWeightConfig",
    "MFConfig",
    "OnlineConfig",
    "SimilarityConfig",
    "RecommendConfig",
    "Clock",
    "SystemClock",
    "VirtualClock",
    "SECONDS_PER_DAY",
    "ActionType",
    "User",
    "UserAction",
    "Video",
    "SyntheticWorld",
    "WorldConfig",
    "MFModel",
    "OnlineTrainer",
    "RealtimeRecommender",
    "Recommendation",
    "GroupedRecommender",
    "SimilarVideoTable",
    "BINARY_MODEL",
    "CONF_MODEL",
    "COMBINE_MODEL",
    "ALL_VARIANTS",
    "MetricsRegistry",
    "Tracer",
    "Observability",
]
