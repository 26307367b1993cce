"""Continuous experimentation: many arms, hash split or interleaving.

Generalises the paper's fixed-split ten-day A/B test (§6.2) into an
:class:`Experiment` object:

* **assignment** — either the classic stable hash split (each user's
  traffic goes to one arm, as in the paper's test), or **team-draft
  multileaving**: every request's result list is drafted round-robin from
  all arms in a per-round random order, and impressions/clicks are
  credited to the arm that contributed each slot.  Interleaving gives
  every arm per-user paired exposure, which slashes the variance of CTR
  deltas;
* **shared logs** — all arms observe the same organic daily stream plus
  all recommendation feedback, as in the paper's production setup.

Every user asks for one list of :data:`TOP_N` videos per day, and every
run lasts its full horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..clock import SECONDS_PER_DAY
from ..data.schema import ActionType, UserAction
from ..data.stream import group_by_day
from ..data.synthetic import SyntheticWorld
from ..errors import ConfigError
from ..hashing import stable_bucket

__all__ = [
    "ArmStats",
    "Experiment",
    "ExperimentResult",
]

#: Videos in every served list.
TOP_N = 10


@dataclass(slots=True)
class ArmStats:
    """Per-arm impression/click accounting.

    ``daily_ctr`` reports ``None`` on zero-impression days — "never
    served" must stay distinguishable from "served but never clicked"
    (which is a true 0.0).
    """

    impressions: list[int] = field(default_factory=list)
    clicks: list[int] = field(default_factory=list)

    def daily_ctr(self) -> list[float | None]:
        return [
            c / i if i else None
            for c, i in zip(self.clicks, self.impressions)
        ]

    @property
    def total_impressions(self) -> int:
        return sum(self.impressions)

    @property
    def total_clicks(self) -> int:
        return sum(self.clicks)

    @property
    def overall_ctr(self) -> float:
        """Clicks over impressions; NaN when the arm was never served."""
        total_impressions = self.total_impressions
        if not total_impressions:
            return float("nan")
        return self.total_clicks / total_impressions


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    """The outcome of one experiment run over ``days`` simulated days."""

    arms: Mapping[str, ArmStats]
    days: int
    assignment: str = "hash"

    def daily_ctr(self) -> dict[str, list[float | None]]:
        """Figure 7: one CTR series per arm (None on zero-impression days)."""
        return {name: stats.daily_ctr() for name, stats in self.arms.items()}

    def overall_ctr(self) -> dict[str, float]:
        return {name: stats.overall_ctr for name, stats in self.arms.items()}

    def improvement_table(self) -> dict[tuple[str, str], float]:
        """Table 5: relative CTR improvement of every arm over every other."""
        ctr = self.overall_ctr()
        table: dict[tuple[str, str], float] = {}
        for a in ctr:
            for b in ctr:
                if (
                    a != b
                    and math.isfinite(ctr[a])
                    and math.isfinite(ctr[b])
                    and ctr[b] > 0
                ):
                    table[(a, b)] = (ctr[a] - ctr[b]) / ctr[b]
        return table

    def days_won(self, arm: str) -> int:
        """On how many days ``arm`` had the strictly highest CTR."""
        daily = self.daily_ctr()
        wins = 0
        for day in range(self.days):
            served = [
                series[day]
                for series in daily.values()
                if series[day] is not None
            ]
            if not served or daily[arm][day] is None:
                continue
            best = max(served)
            if daily[arm][day] == best and served.count(best) == 1:
                wins += 1
        return wins


# ---------------------------------------------------------------------------
# The experiment engine
# ---------------------------------------------------------------------------


class Experiment:
    """Runs a multi-arm live-evaluation simulation on a synthetic world.

    ``assignment="hash"`` reproduces the legacy fixed hash split draw for
    draw; ``assignment="interleave"`` serves every request with a
    team-draft multileaved list built from all arms.
    """

    ASSIGNMENTS = ("hash", "interleave")

    def __init__(
        self,
        world: SyntheticWorld,
        arms: Mapping[str, Any],
        days: int = 10,
        seed: int = 99,
        assignment: str = "hash",
    ) -> None:
        if not arms:
            raise ValueError("an experiment needs at least one arm")
        if assignment not in self.ASSIGNMENTS:
            raise ConfigError(
                f"assignment must be one of {self.ASSIGNMENTS}, "
                f"got {assignment!r}"
            )
        self.world = world
        self.arms = dict(arms)
        self.days = days
        self.assignment = assignment
        self._rng = np.random.default_rng(seed)
        self._arm_names = sorted(self.arms)

    # -- assignment ---------------------------------------------------------

    def arm_of(self, user_id: str) -> str:
        """Stable traffic split: the arm this user's requests go to."""
        return self._arm_names[stable_bucket(user_id, len(self._arm_names))]

    def _interleave(
        self, per_arm: Mapping[str, list[str]]
    ) -> list[tuple[str, str]]:
        """Team-draft multileave: ``(video_id, crediting_arm)`` slots.

        Rounds of drafting: each round visits the arms in a fresh random
        order; every arm drafts its best not-yet-picked candidate.  Stops
        at :data:`TOP_N` slots or when all candidate lists are exhausted.
        """
        cursors = {name: 0 for name in self._arm_names}
        picked: set[str] = set()
        slots: list[tuple[str, str]] = []
        while len(slots) < TOP_N:
            progressed = False
            order = self._rng.permutation(len(self._arm_names))
            for idx in order:
                name = self._arm_names[idx]
                candidates = per_arm[name]
                cursor = cursors[name]
                while cursor < len(candidates) and candidates[cursor] in picked:
                    cursor += 1
                cursors[name] = cursor
                if cursor >= len(candidates):
                    continue
                video_id = candidates[cursor]
                cursors[name] = cursor + 1
                picked.add(video_id)
                slots.append((video_id, name))
                progressed = True
                if len(slots) >= TOP_N:
                    break
            if not progressed:
                break
        return slots

    # -- feedback -----------------------------------------------------------

    def _feedback_actions(
        self, user_id: str, clicked: list[str], now: float
    ) -> list[UserAction]:
        """Engagement generated by clicking recommended videos."""
        actions: list[UserAction] = []
        t = now
        for video_id in clicked:
            actions.append(
                UserAction(t, user_id, video_id, ActionType.CLICK)
            )
            t += 2.0
            actions.append(UserAction(t, user_id, video_id, ActionType.PLAY))
            t += 5.0
        return actions

    # -- the run loop -------------------------------------------------------

    def run(self) -> ExperimentResult:
        """Simulate the experiment; return per-arm daily CTR series."""
        organic = self.world.generate_actions(days=self.days)
        by_day = group_by_day(organic)

        stats = {name: ArmStats() for name in self._arm_names}
        users = self.world.user_ids()

        for day in range(self.days):
            # 1. Everyone ingests the day's shared organic traffic.
            for action in by_day.get(day, ()):
                for arm in self.arms.values():
                    arm.observe(action)

            # 2. Serve each user's request.
            day_impressions = {name: 0 for name in self._arm_names}
            day_clicks = {name: 0 for name in self._arm_names}
            for user_id in users:
                now = (day + 1) * SECONDS_PER_DAY - self._rng.uniform(
                    0, SECONDS_PER_DAY / 2
                )
                if self.assignment == "hash":
                    self._serve_hash(user_id, now, day_impressions, day_clicks)
                else:
                    self._serve_interleaved(
                        user_id, now, day_impressions, day_clicks
                    )

            for name in self._arm_names:
                stats[name].impressions.append(day_impressions[name])
                stats[name].clicks.append(day_clicks[name])

            # 3. Batch arms retrain at end of day.
            end_of_day = (day + 1) * SECONDS_PER_DAY
            for arm in self.arms.values():
                retrain = getattr(arm, "retrain", None)
                if callable(retrain):
                    retrain(end_of_day)

        return ExperimentResult(
            arms=stats, days=self.days, assignment=self.assignment
        )

    def _serve_hash(
        self,
        user_id: str,
        now: float,
        day_impressions: dict[str, int],
        day_clicks: dict[str, int],
    ) -> None:
        """One hash-split request — draw-for-draw the legacy harness."""
        arm_name = self.arm_of(user_id)
        arm = self.arms[arm_name]
        shown = arm.recommend_ids(user_id, n=TOP_N, now=now)
        if not shown:
            return
        clicked = self.world.simulate_clicks(
            user_id, shown, self._rng, now=now
        )
        day_impressions[arm_name] += len(shown)
        day_clicks[arm_name] += len(clicked)
        for action in self._feedback_actions(user_id, clicked, now):
            arm.observe(action)

    def _serve_interleaved(
        self,
        user_id: str,
        now: float,
        day_impressions: dict[str, int],
        day_clicks: dict[str, int],
    ) -> None:
        """One team-draft multileaved request across all arms."""
        per_arm = {
            name: list(
                self.arms[name].recommend_ids(user_id, n=TOP_N, now=now)
            )
            for name in self._arm_names
        }
        slots = self._interleave(per_arm)
        if not slots:
            return
        shown = [video_id for video_id, _ in slots]
        credit = dict(slots)
        clicked = self.world.simulate_clicks(
            user_id, shown, self._rng, now=now
        )
        for video_id, arm_name in slots:
            day_impressions[arm_name] += 1
        for video_id in clicked:
            day_clicks[credit[video_id]] += 1
        # Shared feedback: every arm observes the engagement, exactly as
        # all arms observe the full organic site logs.
        for action in self._feedback_actions(user_id, clicked, now):
            for arm in self.arms.values():
                arm.observe(action)
