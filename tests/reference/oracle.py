"""The paper's MF plane written out longhand: dicts of lists, loops, no numpy.

An independent oracle for differential tests — it shares no arithmetic with
the production model plane (it imports only the config numbers and the
action schema), so a wrong equation in production cannot also be wrong
here.  One action at a time, in stream order:

* Table 1 / Eq. 6 — the action's weight ``w``; PlayTime is
  ``a + b * log10(vrate)`` with view rates under the 0.1 floor scored as a
  bare Play, and a PlayTime on a video of unknown length is invalid;
* Eq. 7 — ``(r, w)``: BinaryModel and CombineModel train toward
  ``r = 1 if w > 0 else 0``, ConfModel toward ``r = w``;
* ``mu`` — the running mean of ``r`` over every valid action, zeros
  (impressions) included, folded in before the action's own step;
* Eq. 8 — ``eta = eta0 + alpha * w`` for CombineModel, ``eta0`` for the
  other two, clamped at ``max_eta``;
* Eq. 2 / 4 / 5 — one SGD step per positive action: predict, error, both
  biases, then *both* vectors from the old values (Eq. 5 in its standard
  form ``x += eta * (e * y - lam * x)``; DESIGN.md says why the printed
  form is not used).

New-entity vectors are deterministic but not part of the paper, so the
caller injects them: ``init(kind, entity_id) -> sequence of floats``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

from repro.config import ActionWeightConfig, MFConfig, OnlineConfig
from repro.data.schema import ActionType, UserAction, Video

#: ``name -> (rating is the weight, learning rate follows the weight)``.
VARIANTS = {
    "BinaryModel": (False, False),
    "ConfModel": (True, False),
    "CombineModel": (False, True),
}


class ReferenceModel:
    """Scalar reference of Table 1 and Eq. 2, 4-8 for one model variant."""

    def __init__(
        self,
        init: Callable[[str, str], Iterable[float]],
        videos: Mapping[str, Video],
        variant: str = "CombineModel",
        mf: MFConfig = MFConfig(),
        online: OnlineConfig = OnlineConfig(),
        weights: ActionWeightConfig = ActionWeightConfig(),
    ) -> None:
        self.init = init
        self.videos = videos
        self.rating_is_weight, self.adjustable = VARIANTS[variant]
        self.mf, self.online, self.weights = mf, online, weights
        self.x: dict[str, list[float]] = {}
        self.y: dict[str, list[float]] = {}
        self.bu: dict[str, float] = {}
        self.bi: dict[str, float] = {}
        self.rating_sum = 0.0
        self.rating_count = 0
        self.counts = {"updated": 0, "skipped_zero": 0, "skipped_invalid": 0}

    # -- Table 1, Eq. 6, Eq. 7, Eq. 8 --------------------------------------

    def weight(self, action: UserAction) -> float | None:
        """``w`` of one action, or ``None`` when it cannot be weighted."""
        cfg = self.weights
        if action.action is ActionType.PLAYTIME:
            video = self.videos.get(action.video_id)
            if video is None:
                return None
            vrate = min(1.0, action.view_time / video.duration)
            if vrate < cfg.vrate_floor:
                return cfg.play
            return cfg.a + cfg.b * math.log10(vrate)
        table = {
            ActionType.IMPRESS: 0.0,
            ActionType.CLICK: cfg.click,
            ActionType.PLAY: cfg.play,
            ActionType.COMMENT: cfg.comment,
            ActionType.LIKE: cfg.like,
            ActionType.SHARE: cfg.share,
        }
        return table[action.action]

    def rating(self, w: float) -> float:
        if self.rating_is_weight:
            return w
        return 1.0 if w > 0 else 0.0

    def learning_rate(self, w: float) -> float:
        eta = self.online.eta0
        if self.adjustable:
            eta = eta + self.online.alpha * w
        return min(eta, self.online.max_eta)

    # -- Eq. 2, Eq. 4, Eq. 5 -----------------------------------------------

    @property
    def mu(self) -> float:
        return self.rating_sum / self.rating_count if self.rating_count else 0.0

    def predict(self, user_id: str, video_id: str) -> float:
        """Eq. 2; an unknown side contributes no bias and no interaction."""
        score = self.mu + self.bu.get(user_id, 0.0) + self.bi.get(video_id, 0.0)
        if user_id in self.x and video_id in self.y:
            x, y = self.x[user_id], self.y[video_id]
            dot = 0.0
            for k in range(self.mf.f):
                dot += x[k] * y[k]
            score += dot
        return score

    def sgd_step(
        self, user_id: str, video_id: str, rating: float, eta: float
    ) -> float:
        """One Eq. 5 step toward ``rating``; returns the Eq. 4 error."""
        if user_id not in self.x:
            self.x[user_id] = [float(v) for v in self.init("user", user_id)]
        if video_id not in self.y:
            self.y[video_id] = [float(v) for v in self.init("video", video_id)]
        lam = self.mf.lam
        e = rating - self.predict(user_id, video_id)
        b_u = self.bu.get(user_id, 0.0)
        b_i = self.bi.get(video_id, 0.0)
        self.bu[user_id] = b_u + eta * (e - lam * b_u)
        self.bi[video_id] = b_i + eta * (e - lam * b_i)
        old_x, old_y = self.x[user_id], self.y[video_id]
        new_x, new_y = [], []
        for k in range(self.mf.f):
            new_x.append(old_x[k] + eta * (e * old_y[k] - lam * old_x[k]))
            new_y.append(old_y[k] + eta * (e * old_x[k] - lam * old_y[k]))
        self.x[user_id], self.y[video_id] = new_x, new_y
        return e

    # -- Algorithm 1 ---------------------------------------------------------

    def process(self, action: UserAction) -> str:
        """Handle one action; returns which counter it landed in."""
        w = self.weight(action)
        if w is None:
            outcome = "skipped_invalid"
        else:
            r = self.rating(w)
            self.rating_sum += r
            self.rating_count += 1
            if w > 0:
                self.sgd_step(
                    action.user_id, action.video_id, r, self.learning_rate(w)
                )
                outcome = "updated"
            else:
                outcome = "skipped_zero"
        self.counts[outcome] += 1
        return outcome

    def top_n(
        self, user_id: str, n: int, candidates: Iterable[str] | None = None
    ) -> list[str]:
        """Exhaustive Eq. 2 ranking; ties break on the video id."""
        pool = sorted(self.y) if candidates is None else list(candidates)
        scored = sorted((-self.predict(user_id, v), v) for v in pool)
        return [video_id for _, video_id in scored[:n]]
