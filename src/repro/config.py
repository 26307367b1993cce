"""Configuration objects for every stage of the system.

The paper tunes its parameters by grid search (Table 2).  The table's header
names the parameters — ``f, lambda, a, b, eta_0, alpha, beta, xi`` — and we
expose each one here with documented semantics and validation.  The defaults
below are the optima of our own grid search on the synthetic world (see
``benchmarks/test_table2_gridsearch.py``); they sit in the ranges the paper's
text implies (e.g. PlayTime weights spanning ``[1.5, 2.5]`` per Table 1).

Configs are frozen dataclasses: construct once, share freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

from .errors import ConfigError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True, slots=True)
class ActionWeightConfig:
    """Weights of implicit-feedback action types (paper Table 1, Eq. 6).

    ``Impress`` has no field: its weight is fixed at zero — an impression
    alone is *not* evidence of preference and never updates the model
    (§3.3).  ``PlayTime`` actions are weighted by the *view rate*
    ``vrate = watched_seconds / video_length`` through
    ``w = a + b * log10(vrate)`` so that a full view scores ``a`` and
    the floor view rate scores ``a - b``; the paper clamps ``vrate`` to
    ``[0.1, 1]`` and treats anything below the floor like a bare ``Play``.

    With the defaults ``a = 2.5, b = 1.0`` the PlayTime weight spans exactly
    the ``[1.5, 2.5]`` interval printed in Table 1.  The click weight sits
    below the Play weight: a click is the weakest, most accident-prone
    positive signal (the value row of the paper's Table 1 is unreadable in
    the source text; 0.5 is our grid-searched choice).
    """

    click: float = 0.5
    play: float = 1.5
    comment: float = 3.0
    like: float = 3.0
    share: float = 3.5
    a: float = 2.5
    b: float = 1.0
    vrate_floor: float = 0.1

    def __post_init__(self) -> None:
        _require(self.click > 0, "click weight must be positive")
        _require(self.a >= self.b > 0, "Eq. 6 requires a >= b > 0")
        _require(0 < self.vrate_floor < 1, "vrate floor must be in (0, 1)")
        # A floored PlayTime must not score below a bare Play, otherwise a
        # user who watched a little would count for *less* than one who only
        # pressed play.
        _require(
            self.a + self.b * math.log10(self.vrate_floor) <= self.play,
            "PlayTime floor weight must not exceed the Play weight",
        )


@dataclass(frozen=True, slots=True)
class MFConfig:
    """Biased matrix-factorization hyper-parameters (paper §3.1).

    ``f`` is the latent dimensionality (the paper quotes 20-200 as the
    production range), ``lam`` the L2 regularization strength of Eq. 3, and
    ``init_scale`` the standard deviation used to initialise new user/video
    vectors in Algorithm 1.

    The factors live in one layout — contiguous per-kind arenas, two values
    of the model state (DESIGN.md "Parameter layout") — so there is nothing to
    select here.
    """

    f: int = 16
    lam: float = 0.01
    init_scale: float = 0.03
    seed: int = 7

    def __post_init__(self) -> None:
        _require(self.f >= 1, "latent dimensionality f must be >= 1")
        _require(self.lam >= 0, "regularization lambda must be >= 0")
        _require(self.init_scale > 0, "init_scale must be positive")


@dataclass(frozen=True, slots=True)
class OnlineConfig:
    """Adjustable online-update parameters (paper Eq. 8, Algorithm 1).

    The per-action learning rate is ``eta_ui = eta_0 + alpha * w_ui``:
    ``eta0`` (the formula's ``eta_0``) is the basic rate every positive
    action receives, and ``alpha`` scales the action's confidence into extra
    step size.  Setting ``alpha = 0`` recovers the paper's *BinaryModel*.
    """

    eta0: float = 0.001
    alpha: float = 0.002
    max_eta: float = 0.5

    def __post_init__(self) -> None:
        _require(self.eta0 > 0, "base learning rate eta0 must be positive")
        _require(self.alpha >= 0, "confidence coefficient alpha must be >= 0")
        _require(self.max_eta >= self.eta0, "max_eta must be >= eta0")


@dataclass(frozen=True, slots=True)
class SimilarityConfig:
    """Similar-video table parameters (paper §4.2, Eqs. 9-12).

    ``beta`` mixes CF similarity (Eq. 9) with type similarity (Eq. 10);
    ``xi`` is the half-life in seconds of the time damping factor
    ``d = 2^(-dt/xi)`` (Eq. 11); ``table_size`` is the length of each
    video's similar-video list.  How many partners one engagement is
    scored against is :data:`repro.core.simtable.MAX_PAIRS`.
    """

    beta: float = 0.2
    xi: float = 2 * 86_400.0
    table_size: int = 50

    def __post_init__(self) -> None:
        _require(0 <= self.beta <= 1, "fusion weight beta must be in [0, 1]")
        _require(self.xi > 0, "damping half-life xi must be positive")
        _require(self.table_size >= 1, "table_size must be >= 1")


@dataclass(frozen=True, slots=True)
class RecommendConfig:
    """Real-time recommendation generation parameters (paper §4.1, §5.2)."""

    top_n: int = 10
    max_seeds: int = 5
    #: Candidates rescored per request.  Deliberately tight: the
    #: similar-video tables already rank by relevance, and §4.1's whole
    #: point is that serving must not degenerate into scoring large pools
    #: (grid-searched; widening this dilutes the tables' signal with the
    #: popularity bias of the Eq. 2 reranker).
    max_candidates: int = 30
    #: Fraction of recommendation slots the demographic (DB) algorithm may
    #: fill when merging hot videos into the MF results (§5.2.1).
    demographic_slots: float = 0.2
    #: Whether already-watched videos are suppressed from recommendations.
    #: Off by default: the paper's scenarios ("related videos", "guess you
    #: like") do not exclude re-watching, which is pervasive on video sites
    #: (series, shows) and part of what its recall protocol measures.
    exclude_watched: bool = False

    def __post_init__(self) -> None:
        _require(self.top_n >= 1, "top_n must be >= 1")
        _require(self.max_seeds >= 1, "max_seeds must be >= 1")
        _require(self.max_candidates >= self.top_n, "candidates must cover top_n")
        _require(
            0 <= self.demographic_slots <= 1,
            "demographic_slots is a fraction in [0, 1]",
        )


@dataclass(frozen=True, slots=True)
class RetrievalConfig:
    """Candidate retrieval strategy (DESIGN.md "Candidate retrieval index").

    ``mode`` selects how the recommender gathers the pool the Eq. 2
    re-ranker scores:

    * ``"table"`` (default) — the paper's similar-video tables only.
    * ``"ann"`` — an exact scan over the learned video factors
      (:class:`repro.core.AnnIndex`) shortlists, the Eq. 2 re-rank orders.
      The name predates the scan; callers still select it as ``"ann"``.
    """

    mode: str = "table"

    def __post_init__(self) -> None:
        _require(
            self.mode in ("table", "ann"),
            f"mode must be 'table' or 'ann', got {self.mode!r}",
        )


@dataclass(frozen=True, slots=True)
class ReproConfig:
    """Bundle of all stage configurations with paper-style defaults."""

    weights: ActionWeightConfig = field(default_factory=ActionWeightConfig)
    mf: MFConfig = field(default_factory=MFConfig)
    online: OnlineConfig = field(default_factory=OnlineConfig)
    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    recommend: RecommendConfig = field(default_factory=RecommendConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)

    def with_overrides(self, **sections: Mapping[str, object]) -> "ReproConfig":
        """Return a copy with named fields replaced inside named sections.

        Example::

            cfg = ReproConfig().with_overrides(online={"alpha": 0.0})
        """
        updates = {}
        for section, fields_ in sections.items():
            current = getattr(self, section, None)
            if current is None:
                raise ConfigError(f"unknown config section: {section!r}")
            updates[section] = replace(current, **dict(fields_))
        return replace(self, **updates)


#: The parameter names of the paper's Table 2, mapped to where they live in
#: this configuration.  The printed value row is unreadable in the source
#: text, so values are re-derived by grid search (see DESIGN.md).
TABLE2_PARAMETERS: Mapping[str, str] = {
    "f": "mf.f",
    "lambda": "mf.lam",
    "a": "weights.a",
    "b": "weights.b",
    "eta_0": "online.eta0",
    "alpha": "online.alpha",
    "beta": "similarity.beta",
    "xi": "similarity.xi",
}
