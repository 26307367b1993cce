"""Evaluation: metrics (Eqs. 13-14), offline protocol (§6.1), grid search
(Table 2), the experimentation platform (§6.2), and scriptable
adversarial scenarios (ROADMAP item 1)."""

from .experiment import ArmStats, Experiment, ExperimentResult
from .gridsearch import GridPoint, GridSearchResult, grid_search
from .scenarios import (
    SCENARIO_LIBRARY,
    CatalogChurn,
    DiurnalWave,
    FlashCrowd,
    PreferenceDrift,
    Scenario,
    ScenarioReport,
    run_scenario,
    validate_scenario_report,
)
from .multiseed import (
    SeedSummary,
    bootstrap_ci,
    per_user_recall,
    run_across_seeds,
    summarize,
)
from .metrics import (
    average_rank,
    percentile_rank,
    recall_at_n,
    recall_curve,
)
from .protocol import (
    EvalResult,
    evaluate,
    interest_lists_by_user,
    liked_videos_by_user,
)

__all__ = [
    "recall_at_n",
    "recall_curve",
    "average_rank",
    "percentile_rank",
    "EvalResult",
    "evaluate",
    "interest_lists_by_user",
    "liked_videos_by_user",
    "grid_search",
    "GridPoint",
    "GridSearchResult",
    "ArmStats",
    "Experiment",
    "ExperimentResult",
    "Scenario",
    "FlashCrowd",
    "CatalogChurn",
    "DiurnalWave",
    "PreferenceDrift",
    "SCENARIO_LIBRARY",
    "ScenarioReport",
    "run_scenario",
    "validate_scenario_report",
    "run_across_seeds",
    "summarize",
    "SeedSummary",
    "bootstrap_ci",
    "per_user_recall",
]
