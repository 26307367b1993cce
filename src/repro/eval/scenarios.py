"""Scriptable adversarial production scenarios.

The paper validates its real-time methods with a ten-day live A/B test
(§6.2); the original reproduction replayed one benign organic trace.  But
the *payoff* of real-time similarity updates, online MF and admission
control shows up under recency pressure — a video going viral mid-stream,
catalog churn with cold-start items, diurnal traffic waves, preferences
drifting under the model.  This module makes those regimes first-class:

* **typed events** (:class:`FlashCrowd`, :class:`CatalogChurn`,
  :class:`DiurnalWave`, :class:`PreferenceDrift`) compose into a
  :class:`Scenario` timeline;
* :class:`~repro.data.synthetic.SyntheticWorld` consults the scenario for
  its per-day dynamics (popularity, catalog membership, arrival rates,
  preference factors).  A world with no scenario is **byte-identical** to
  the pre-scenario generator — pinned by a golden digest test;
* :func:`run_scenario` drives an interleaved
  :class:`~repro.eval.experiment.Experiment` through the scenario and
  returns the CTR per arm per day as one schema-versioned
  :class:`ScenarioReport`.

The engine measures recommendation quality only; serving under load is
measured over HTTP by ``benchmarks/e2e``.  The module deliberately imports
only :mod:`repro.clock` and typed schema pieces at import time; the heavy
eval wiring is imported inside :func:`run_scenario` so the data layer can
reference scenarios without an import cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..clock import SECONDS_PER_DAY
from ..errors import ConfigError

__all__ = [
    "ScenarioEvent",
    "FlashCrowd",
    "CatalogChurn",
    "DiurnalWave",
    "PreferenceDrift",
    "ExtraVideoSpec",
    "Scenario",
    "flash_crowd",
    "catalog_churn",
    "diurnal_wave",
    "preference_drift",
    "SCENARIO_LIBRARY",
    "ScenarioReport",
    "SCENARIO_REPORT_SCHEMA_VERSION",
    "validate_scenario_report",
    "run_scenario",
    "default_arms",
]


# ---------------------------------------------------------------------------
# Typed events
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ExtraVideoSpec:
    """A video the scenario injects into the catalogue mid-stream.

    ``type_index`` is reduced modulo the world's ``n_types``;
    ``available_from_day`` is the first day the video can be impressed.
    """

    video_id: str
    type_index: int
    available_from_day: int


@dataclass(frozen=True, slots=True)
class ScenarioEvent:
    """Base class for timeline events (see concrete subclasses)."""

    def extra_video_specs(self, days: int) -> list[ExtraVideoSpec]:
        return []

    def popularity_multipliers(self, day: int) -> dict[str, float]:
        return {}

    def rate_multiplier(self, day: int) -> float:
        return 1.0

    def retire_count_through(self, day: int) -> int:
        return 0

    def arrival_wave(self, day: int) -> tuple[float, float, float] | None:
        """``(amplitude, period_seconds, phase)`` shaping within-day starts."""
        return None

    def drift_rotation_params(self, day: int) -> tuple[float, int] | None:
        """``(angle_radians, seed)`` when user factors are rotated on ``day``."""
        return None


@dataclass(frozen=True, slots=True)
class FlashCrowd(ScenarioEvent):
    """A video goes viral mid-stream (default: a brand-new one).

    From ``day`` for ``duration_days`` the viral video's popularity is
    multiplied by ``boost`` and overall arrivals by ``rate_spike`` — the
    regime that exercises simtable eviction (a flood of fresh pairs must
    displace heap-weakest entries) and online training of a new item whose
    factors move fast.
    """

    day: int = 3
    duration_days: int = 2
    boost: float = 60.0
    video_id: str | None = None  # None: inject a new video "viral_0"
    type_index: int = 0
    rate_spike: float = 1.5

    def __post_init__(self) -> None:
        if self.day < 0 or self.duration_days < 1:
            raise ConfigError("flash crowd needs day >= 0, duration >= 1")
        if self.boost <= 1.0:
            raise ConfigError("flash crowd boost must exceed 1.0")

    @property
    def viral_video_id(self) -> str:
        return self.video_id if self.video_id is not None else "viral_0"

    def extra_video_specs(self, days: int) -> list[ExtraVideoSpec]:
        if self.video_id is not None:
            return []
        return [ExtraVideoSpec("viral_0", self.type_index, self.day)]

    def popularity_multipliers(self, day: int) -> dict[str, float]:
        if self.day <= day < self.day + self.duration_days:
            return {self.viral_video_id: self.boost}
        return {}

    def rate_multiplier(self, day: int) -> float:
        if self.day <= day < self.day + self.duration_days:
            return self.rate_spike
        return 1.0


@dataclass(frozen=True, slots=True)
class CatalogChurn(ScenarioEvent):
    """Items enter and leave the catalogue daily (cold-start pressure).

    From ``start_day`` on, ``adds_per_day`` brand-new videos become
    available each day (spread across types) and the ``retires_per_day``
    weakest remaining base videos are withdrawn — the LFG / News-UK
    recency regime where batch-trained arms serve a stale catalogue.
    """

    start_day: int = 1
    adds_per_day: int = 4
    retires_per_day: int = 4

    def __post_init__(self) -> None:
        if self.start_day < 0:
            raise ConfigError("catalog churn start_day must be >= 0")
        if self.adds_per_day < 0 or self.retires_per_day < 0:
            raise ConfigError("catalog churn rates must be >= 0")

    def extra_video_specs(self, days: int) -> list[ExtraVideoSpec]:
        specs = []
        for day in range(self.start_day, days):
            for i in range(self.adds_per_day):
                ordinal = (day - self.start_day) * self.adds_per_day + i
                specs.append(
                    ExtraVideoSpec(f"new_d{day}_{i}", ordinal, day)
                )
        return specs

    def retire_count_through(self, day: int) -> int:
        if day < self.start_day:
            return 0
        return self.retires_per_day * (day - self.start_day + 1)


@dataclass(frozen=True, slots=True)
class DiurnalWave(ScenarioEvent):
    """Arrival-rate modulation: a sinusoidal within-day traffic wave.

    Session start times follow a density ``1 + amplitude * sin(...)``
    instead of uniform, so engagement crowds into peak hours.
    """

    amplitude: float = 0.7
    period_seconds: float = SECONDS_PER_DAY
    phase: float = -math.pi / 2.0  # trough at midnight, peak mid-day

    def __post_init__(self) -> None:
        if not 0.0 < self.amplitude <= 1.0:
            raise ConfigError("diurnal amplitude must be in (0, 1]")
        if self.period_seconds <= 0:
            raise ConfigError("diurnal period must be positive")

    def arrival_wave(self, day: int) -> tuple[float, float, float] | None:
        return (self.amplitude, self.period_seconds, self.phase)


@dataclass(frozen=True, slots=True)
class PreferenceDrift(ScenarioEvent):
    """User preference vectors rotate mid-stream.

    From ``day`` on, every user's ground-truth factor vector is rotated by
    ``angle_degrees`` in a fixed random plane of the latent space: tastes
    learned from the first days go stale at once, and only arms that keep
    learning online can follow.
    """

    day: int = 3
    angle_degrees: float = 75.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.day < 0:
            raise ConfigError("preference drift day must be >= 0")
        if not 0.0 < abs(self.angle_degrees) <= 180.0:
            raise ConfigError("drift angle must be in (0, 180] degrees")

    def drift_rotation_params(self, day: int) -> tuple[float, int] | None:
        if day >= self.day:
            return (math.radians(self.angle_degrees), self.seed)
        return None


# ---------------------------------------------------------------------------
# The composable timeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A named, composable timeline of typed world events.

    The synthetic world queries the scenario day by day; every query
    composes over all events (multipliers multiply, catalog changes and
    rotations accumulate).  A scenario with no events is the organic
    baseline — :class:`~repro.data.synthetic.SyntheticWorld` treats it
    exactly like ``scenario=None``.
    """

    name: str
    events: tuple[ScenarioEvent, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ConfigError(
                f"scenario name must be a non-empty slug, got {self.name!r}"
            )

    # -- world-facing queries (see SyntheticWorld._day_state) --------------

    def extra_video_specs(self, days: int) -> list[ExtraVideoSpec]:
        specs: list[ExtraVideoSpec] = []
        seen: set[str] = set()
        for event in self.events:
            for spec in event.extra_video_specs(days):
                if spec.video_id in seen:
                    raise ConfigError(
                        f"duplicate scenario video id {spec.video_id!r}"
                    )
                seen.add(spec.video_id)
                specs.append(spec)
        return specs

    def popularity_multipliers(self, day: int) -> dict[str, float]:
        out: dict[str, float] = {}
        for event in self.events:
            for video_id, mult in event.popularity_multipliers(day).items():
                out[video_id] = out.get(video_id, 1.0) * mult
        return out

    def rate_multiplier(self, day: int) -> float:
        mult = 1.0
        for event in self.events:
            mult *= event.rate_multiplier(day)
        return mult

    def retire_count_through(self, day: int) -> int:
        return sum(event.retire_count_through(day) for event in self.events)

    def arrival_wave(self, day: int) -> tuple[float, float, float] | None:
        for event in self.events:
            wave = event.arrival_wave(day)
            if wave is not None:
                return wave
        return None

    def drift_rotation(self, day: int, dim: int) -> np.ndarray | None:
        """The accumulated rotation applied to user factors on ``day``."""
        rotation: np.ndarray | None = None
        for event in self.events:
            params = event.drift_rotation_params(day)
            if params is None:
                continue
            angle, seed = params
            step = _plane_rotation(dim, angle, seed)
            rotation = step if rotation is None else rotation @ step
        return rotation

    def describe(self) -> str:
        if not self.events:
            return f"{self.name}: organic baseline (no events)"
        parts = ", ".join(type(e).__name__ for e in self.events)
        return f"{self.name}: {parts}"


def _plane_rotation(dim: int, angle: float, seed: int) -> np.ndarray:
    """A rotation by ``angle`` in one random 2-D plane of ``R^dim``.

    Deterministic in ``(dim, angle, seed)`` and independent of any other
    RNG in the system — scenario dynamics must never perturb the organic
    generator's draw sequence.
    """
    if dim < 2:
        return np.eye(dim)
    rng = np.random.default_rng(1_000_003 * seed + dim)
    basis, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
    q1, q2 = basis[:, 0], basis[:, 1]
    identity = np.eye(dim)
    return (
        identity
        + (math.cos(angle) - 1.0) * (np.outer(q1, q1) + np.outer(q2, q2))
        + math.sin(angle) * (np.outer(q1, q2) - np.outer(q2, q1))
    )


# ---------------------------------------------------------------------------
# The scenario library
# ---------------------------------------------------------------------------


def flash_crowd(
    day: int = 3,
    duration_days: int = 2,
    boost: float = 60.0,
    rate_spike: float = 1.5,
    video_id: str | None = None,
    type_index: int = 0,
) -> Scenario:
    return Scenario(
        "flash_crowd",
        (
            FlashCrowd(
                day=day,
                duration_days=duration_days,
                boost=boost,
                rate_spike=rate_spike,
                video_id=video_id,
                type_index=type_index,
            ),
        ),
    )


def catalog_churn(
    start_day: int = 1, adds_per_day: int = 4, retires_per_day: int = 4
) -> Scenario:
    return Scenario(
        "catalog_churn",
        (
            CatalogChurn(
                start_day=start_day,
                adds_per_day=adds_per_day,
                retires_per_day=retires_per_day,
            ),
        ),
    )


def diurnal_wave(
    amplitude: float = 0.7,
    period_seconds: float = SECONDS_PER_DAY,
    phase: float = -math.pi / 2.0,
) -> Scenario:
    return Scenario(
        "diurnal_wave",
        (
            DiurnalWave(
                amplitude=amplitude,
                period_seconds=period_seconds,
                phase=phase,
            ),
        ),
    )


def preference_drift(
    day: int = 3, angle_degrees: float = 75.0, seed: int = 7
) -> Scenario:
    return Scenario(
        "preference_drift",
        (PreferenceDrift(day=day, angle_degrees=angle_degrees, seed=seed),),
    )


#: Factory per scenario type — the library the CI smoke job iterates.
SCENARIO_LIBRARY: dict[str, Any] = {
    "flash_crowd": flash_crowd,
    "catalog_churn": catalog_churn,
    "diurnal_wave": diurnal_wave,
    "preference_drift": preference_drift,
}


# ---------------------------------------------------------------------------
# ScenarioReport
# ---------------------------------------------------------------------------

#: Version stamped into every ScenarioReport document.
SCENARIO_REPORT_SCHEMA_VERSION = 2

_REPORT_TOP_KEYS = {
    "schema_version",
    "scenario",
    "events",
    "days",
    "arms",
    "ctr_ordering_ok",
}


@dataclass(frozen=True)
class ScenarioReport:
    """The quality metrics of one scenario run.

    ``arms`` maps arm name to ``{"overall_ctr", "impressions", "clicks",
    "daily_ctr"}`` (``daily_ctr`` entries are ``None`` on zero-impression
    days).  :meth:`to_doc` produces the JSON document the benchmark
    harness validates and archives.
    """

    scenario: str
    events: tuple[str, ...]
    days: int
    arms: Mapping[str, Mapping[str, Any]]
    ctr_ordering_ok: bool

    def to_doc(self) -> dict[str, Any]:
        doc = {
            "schema_version": SCENARIO_REPORT_SCHEMA_VERSION,
            "scenario": self.scenario,
            "events": list(self.events),
            "days": self.days,
            "arms": {
                name: {
                    "overall_ctr": stats["overall_ctr"],
                    "impressions": stats["impressions"],
                    "clicks": stats["clicks"],
                    "daily_ctr": list(stats["daily_ctr"]),
                }
                for name, stats in self.arms.items()
            },
            "ctr_ordering_ok": self.ctr_ordering_ok,
        }
        errors = validate_scenario_report(doc)
        if errors:
            raise ValueError(
                f"refusing to emit invalid scenario report "
                f"{self.scenario!r}: " + "; ".join(errors)
            )
        return doc

    def flat_metrics(self) -> dict[str, float]:
        """Flatten into ``BENCH_*`` metric naming (finite numbers only)."""
        out: dict[str, float] = {}
        prefix = self.scenario
        for name, stats in self.arms.items():
            ctr = stats["overall_ctr"]
            if ctr is not None and math.isfinite(ctr):
                out[f"{prefix}_ctr_{name.lower()}"] = float(ctr)
        out[f"{prefix}_ordering_ok"] = 1.0 if self.ctr_ordering_ok else 0.0
        return out


def validate_scenario_report(doc: Any) -> list[str]:
    """Schema check for one ScenarioReport document (stdlib only)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"report must be an object, got {type(doc).__name__}"]
    if doc.get("schema_version") != SCENARIO_REPORT_SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {SCENARIO_REPORT_SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}"
        )
    if not isinstance(doc.get("scenario"), str) or not doc.get("scenario"):
        errors.append("scenario must be a non-empty string")
    events = doc.get("events")
    if not isinstance(events, list) or not all(
        isinstance(e, str) for e in events
    ):
        errors.append("events must be a list of strings")
    if not isinstance(doc.get("days"), int) or doc.get("days", 0) < 1:
        errors.append("days must be a positive integer")
    arms = doc.get("arms")
    if not isinstance(arms, dict) or not arms:
        errors.append("arms must be a non-empty object")
    else:
        for name, stats in arms.items():
            if not isinstance(stats, dict):
                errors.append(f"arms[{name!r}] must be an object")
                continue
            for key in ("overall_ctr", "impressions", "clicks", "daily_ctr"):
                if key not in stats:
                    errors.append(f"arms[{name!r}] missing {key!r}")
            daily = stats.get("daily_ctr")
            if not isinstance(daily, list):
                errors.append(f"arms[{name!r}]['daily_ctr'] must be a list")
    if not isinstance(doc.get("ctr_ordering_ok"), bool):
        errors.append("ctr_ordering_ok must be a boolean")
    unknown = set(doc) - _REPORT_TOP_KEYS
    if unknown:
        errors.append(f"unknown top-level keys: {sorted(unknown)}")
    return errors


# ---------------------------------------------------------------------------
# End-to-end scenario runner
# ---------------------------------------------------------------------------


def default_arms(world) -> dict[str, Any]:
    """The four arms of the paper's live test (§6.2) on ``world``.

    rMF is the deployed configuration: the CombineModel trained per
    demographic group, with demographic filtering.
    """
    from ..baselines import (
        AssociationRuleRecommender,
        HotRecommender,
        SimHashCFRecommender,
    )
    from ..clock import VirtualClock
    from ..core import COMBINE_MODEL, GroupedRecommender
    from ..core.variants import grid_searched_rates
    from ..config import ReproConfig

    eta0, alpha = grid_searched_rates(COMBINE_MODEL)
    rmf_config = ReproConfig().with_overrides(
        online={"eta0": eta0, "alpha": alpha},
        mf={"f": 16, "init_scale": 0.03},
        weights={"click": 0.5},
        recommend={"max_candidates": 20, "demographic_slots": 0.05},
    )
    rmf = GroupedRecommender(
        world.videos,
        world.users,
        config=rmf_config,
        variant=COMBINE_MODEL,
        clock=VirtualClock(0.0),
        enable_demographic=True,
    )
    return {
        "Hot": HotRecommender(clock=VirtualClock(0.0), exclude_watched=False),
        "AR": AssociationRuleRecommender(
            min_support=2, min_confidence=0.02, exclude_watched=False
        ),
        "SimHash": SimHashCFRecommender(
            min_similarity=0.55, exclude_watched=False
        ),
        "rMF": rmf,
    }


def _ctr_ordering_ok(overall: Mapping[str, float]) -> bool:
    """The paper's live-test ordering: Hot < AR ≈ SimHash < rMF.

    Checked as: rMF strictly beats Hot, rMF is at least as good as AR and
    SimHash (within a 2% relative tolerance, mirroring the "≈"), and Hot
    is the weakest arm.
    """
    hot = overall.get("Hot")
    rmf = overall.get("rMF")
    if hot is None or rmf is None:
        return False
    mids = [v for k, v in overall.items() if k not in ("Hot", "rMF")]
    if not rmf > hot:
        return False
    if any(not rmf >= mid * 0.98 for mid in mids):
        return False
    return all(hot <= mid for mid in mids)


def run_scenario(
    scenario: Scenario,
    *,
    days: int = 8,
    n_users: int = 120,
    n_videos: int = 160,
    seed: int = 2016,
    arms: Mapping[str, Any] | None = None,
) -> ScenarioReport:
    """Run one scenario end-to-end and return its :class:`ScenarioReport`.

    A fresh calibrated world with ``scenario`` drives an interleaved
    :class:`~repro.eval.experiment.Experiment` over the standard four arms
    (:func:`default_arms`; ``arms`` substitutes others) for the full
    horizon: CTR per arm per day, and whether the paper's ordering held.
    """
    from ..data.synthetic import SyntheticWorld, paper_world_config
    from .experiment import Experiment

    world = SyntheticWorld(
        paper_world_config(
            n_users=n_users, n_videos=n_videos, days=days, seed=seed
        ),
        scenario=scenario,
    )
    if arms is None:
        arms = default_arms(world)
    result = Experiment(
        world, arms, days=days, seed=17, assignment="interleave"
    ).run()
    arms_doc = {
        name: {
            "overall_ctr": stats.overall_ctr
            if stats.total_impressions
            else None,
            "impressions": stats.total_impressions,
            "clicks": stats.total_clicks,
            "daily_ctr": stats.daily_ctr(),
        }
        for name, stats in result.arms.items()
    }
    return ScenarioReport(
        scenario=scenario.name,
        events=tuple(type(e).__name__ for e in scenario.events),
        days=result.days,
        arms=arms_doc,
        ctr_ordering_ok=_ctr_ordering_ok(result.overall_ctr()),
    )
