"""Synthetic implicit-feedback world with ground-truth preferences.

Stands in for the proprietary Tencent Video logs (see DESIGN.md).  The
generator builds a world whose statistical structure matches what the
paper's methods exploit:

* **low-rank preferences** — users and videos have ground-truth latent
  factors; the probability of clicking/watching grows with their inner
  product, so an MF model can in principle recover them;
* **video types** — each video belongs to one fine-grained type and video
  factors cluster by type, which makes the type-similarity factor of
  Eq. 10 informative;
* **demographic groups** — user factors cluster by (gender, age band)
  group, so demographic training (§5.2.2) sees denser, more coherent
  sub-matrices;
* **the action funnel** — Impress → Click → Play → PlayTime(+ Like/Comment)
  with the conditional probabilities increasing in ground-truth affinity,
  so action *confidence levels* (Table 1) genuinely carry signal;
* **temporal drift** — a rotating set of videos trends on each day, which
  the time-damping factor of Eq. 11 is designed to track.

Because the ground truth is known, the A/B testing harness can simulate
clicks on any recommendation list, and sanity tests can check that learned
rankings correlate with true affinities.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..clock import SECONDS_PER_DAY
from ..errors import ConfigError, DataError
from .schema import ActionType, User, UserAction, Video

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (eval -> data)
    from ..eval.scenarios import Scenario


@dataclass(frozen=True, slots=True)
class WorldConfig:
    """Knobs of the synthetic world.

    Defaults are sized for unit tests (sub-second generation); benchmarks
    scale ``n_users``/``n_videos`` up.
    """

    n_users: int = 300
    n_videos: int = 240
    n_types: int = 8
    latent_dim: int = 8
    days: int = 7
    seed: int = 2016

    genders: Sequence[str] = ("m", "f")
    age_bands: Sequence[str] = ("teen", "young", "adult", "senior")
    unregistered_fraction: float = 0.25

    #: How strongly user factors cluster around their demographic group
    #: mean, and video factors around their type mean (0 = pure noise,
    #: 1 = identical within cluster).
    group_cohesion: float = 0.6
    type_cohesion: float = 0.6
    #: Softmax temperature of per-user type preferences: higher values
    #: concentrate a user's taste-driven impressions in fewer types.
    type_temperature: float = 3.0

    mean_sessions_per_day: float = 2.0
    impressions_per_session: int = 8
    #: Mixture weight of popularity-driven vs taste-driven impressions.
    popularity_mix: float = 0.45
    #: Zipf exponent of the video popularity distribution.
    popularity_skew: float = 1.1
    #: Fraction of the catalogue that trends (gets a popularity boost) on
    #: any given day, and the multiplicative boost applied.
    trending_fraction: float = 0.05
    trending_boost: float = 8.0

    #: Click model: P(click | impress) = sigmoid(bias + scale * affinity).
    click_bias: float = -1.6
    click_scale: float = 2.8
    play_given_click: float = 0.85

    #: Series/favourite re-watching, the dominant engagement pattern on a
    #: video site: each user has a personal pool of favourite videos
    #: (episodes, shows) sampled from their highest-affinity titles, and
    #: ``rewatch_mix`` of their impressions come from that pool.
    favorites_per_user: int = 15
    rewatch_mix: float = 0.35

    #: Accidental engagement noise (§3.2's "quite noisy" implicit data):
    #: with this probability an impression is clicked *regardless of
    #: affinity* (misleading thumbnail, misclick); such clicks rarely turn
    #: into real watching.
    noise_click_rate: float = 0.08
    #: Beta concentration of the view-rate draw.  Lower values make the
    #: view rate a noisier signal of true affinity — "the fact that a user
    #: watched a video in its entirety is not enough to conclude that he
    #: actually liked it".
    vrate_concentration: float = 2.5
    #: Probability that a *genuine* watch is cut short regardless of
    #: affinity — "a user may watch a favorite video for just a short
    #: period because of time limitation" (§3.2).  The paper's second
    #: noise source: low view rate does not mean low preference.
    time_limited_rate: float = 0.3

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_videos < 1:
            raise ConfigError("world needs at least one user and one video")
        if self.n_types < 1 or self.n_types > self.n_videos:
            raise ConfigError("need 1 <= n_types <= n_videos")
        if not 0 <= self.unregistered_fraction < 1:
            raise ConfigError("unregistered_fraction must be in [0, 1)")
        if not 0 <= self.popularity_mix <= 1:
            raise ConfigError("popularity_mix must be in [0, 1]")
        if not (0 <= self.group_cohesion <= 1 and 0 <= self.type_cohesion <= 1):
            raise ConfigError("cohesion parameters must be in [0, 1]")
        if self.days < 1:
            raise ConfigError("world must span at least one day")


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


#: ``Generator.choice``'s tolerance on ``sum(p) - 1``.
_P_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(a, p=p)`` draws from, built once.

    ``cdf.searchsorted(rng.random(), side="right")`` then picks the same
    index ``choice`` would and consumes the same single double from the
    stream, without ``choice``'s per-call validation and cumsum.  ``p``
    is checked as ``choice`` checks it (non-negative, sums to 1 within
    :data:`_P_ATOL`, else ``ValueError``); a 2-D ``p`` is one distribution
    per row, and ``cumsum`` along the row equals each row's own cumsum.
    The sampler keeps the ``tolist()`` copy, which :func:`_draw` searches
    with ``bisect_right`` — the same index, without numpy's per-call cost.
    """
    if not (p >= 0).all():
        raise ValueError("probabilities are not non-negative")
    if (np.abs(p.sum(axis=-1) - 1.0) > _P_ATOL).any():
        raise ValueError("probabilities do not sum to 1")
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _draw(cdf: Sequence[float], rng: np.random.Generator) -> int:
    """One index drawn from ``cdf`` exactly as ``Generator.choice`` would.

    ``bisect_right`` returns ``searchsorted(side="right")``'s index: the
    first entry greater than the draw, so a draw equal to a CDF value
    skips past it, and zero-probability entries (repeated values) are
    never picked.
    """
    return bisect_right(cdf, rng.random())


def paper_world_config(
    n_users: int = 300,
    n_videos: int = 400,
    days: int = 7,
    seed: int = 2016,
    **overrides: object,
) -> WorldConfig:
    """The calibrated world used by the paper-reproduction benchmarks.

    Parameters were tuned (see EXPERIMENTS.md) so the synthetic world
    exhibits the regimes the paper's experiments rely on: taste-driven
    exposure with a popularity floor, series re-watching, accidental-click
    noise, deceptive long watches, and time-limited short watches of
    genuine favourites.
    """
    base = dict(
        n_users=n_users,
        n_videos=n_videos,
        n_types=10,
        days=days,
        seed=seed,
        popularity_mix=0.15,
        popularity_skew=0.4,
        trending_boost=2.5,
        click_bias=-2.6,
        click_scale=5.0,
        group_cohesion=0.7,
        type_cohesion=0.6,
        play_given_click=0.75,
        mean_sessions_per_day=3.0,
        noise_click_rate=0.2,
        vrate_concentration=2.0,
        time_limited_rate=0.3,
    )
    base.update(overrides)
    return WorldConfig(**base)  # type: ignore[arg-type]


@dataclass(slots=True)
class _DayState:
    """The world dynamics in force on one simulated day.

    Every weighted draw's distribution is held as the CDF
    :func:`_choice_cdf` builds, as a plain list for :func:`_draw`, once
    per day (``pop_cdf``), per type (``type_cdfs``, within-type
    popularity) and per user (``type_cdf``, one row of type preferences
    each); catalogue members and favourites are lists of video indices.
    For a scenario-free world every field but ``pop_cdf`` aliases the base
    structures, so the generator's draw sequence — and therefore its
    output — is byte-identical to the pre-scenario implementation (pinned
    by the golden digest tests).
    Scenario events swap in per-day variants: boosted/renormalised
    popularity, restricted catalogues, rotated preference factors,
    modulated arrival rates, wave-shaped session start times.
    """

    pop_cdf: list[float]
    videos_of_type: list[list[int]]
    type_cdfs: list[list[float]]
    favorites: list[list[int]]
    active: np.ndarray | None
    user_factors: np.ndarray
    type_cdf: list[list[float]]
    rate_multiplier: float
    start_sampler: Callable[[float], float] | None


class SyntheticWorld:
    """A generated catalogue + population with queryable ground truth.

    ``scenario`` (a :class:`~repro.eval.scenarios.Scenario`, duck-typed)
    drives the world's dynamics through a timeline of typed events; with
    no scenario — or an event-free one — the generator is byte-identical
    to the classic organic world.
    """

    def __init__(
        self,
        config: WorldConfig | None = None,
        scenario: "Scenario | None" = None,
    ) -> None:
        self.config = config or WorldConfig()
        cfg = self.config
        self._rng = np.random.default_rng(cfg.seed)
        d = cfg.latent_dim

        # Demographic groups: cross product of gender x age band.
        self.group_labels = [
            f"{g}|{a}" for g in cfg.genders for a in cfg.age_bands
        ]
        group_means = self._rng.normal(size=(len(self.group_labels), d))
        group_means /= np.linalg.norm(group_means, axis=1, keepdims=True)

        type_labels = [f"type_{k}" for k in range(cfg.n_types)]
        self.type_labels = type_labels
        type_means = self._rng.normal(size=(cfg.n_types, d))
        type_means /= np.linalg.norm(type_means, axis=1, keepdims=True)
        self._type_means = type_means

        # ---- users -------------------------------------------------------
        self.users: dict[str, User] = {}
        self._user_index: dict[str, int] = {}
        user_groups = self._rng.integers(0, len(self.group_labels), cfg.n_users)
        registered = self._rng.random(cfg.n_users) >= cfg.unregistered_fraction
        gc = cfg.group_cohesion
        noise = self._rng.normal(size=(cfg.n_users, d))
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)
        self.user_factors = (
            math.sqrt(gc) * group_means[user_groups] + math.sqrt(1 - gc) * noise
        )
        #: Per-user activity multiplier (heavy-tailed, mean ~1).
        self._activity = self._rng.lognormal(mean=-0.125, sigma=0.5, size=cfg.n_users)
        for i in range(cfg.n_users):
            gender, age = self.group_labels[user_groups[i]].split("|")
            user = User(
                user_id=f"u{i}",
                registered=bool(registered[i]),
                gender=gender if registered[i] else None,
                age_band=age if registered[i] else None,
            )
            self.users[user.user_id] = user
            self._user_index[user.user_id] = i
        self._true_groups = user_groups

        # ---- videos ------------------------------------------------------
        self.videos: dict[str, Video] = {}
        self._video_index: dict[str, int] = {}
        video_types = self._rng.integers(0, cfg.n_types, cfg.n_videos)
        tc = cfg.type_cohesion
        vnoise = self._rng.normal(size=(cfg.n_videos, d))
        vnoise /= np.linalg.norm(vnoise, axis=1, keepdims=True)
        self.video_factors = (
            math.sqrt(tc) * type_means[video_types] + math.sqrt(1 - tc) * vnoise
        )
        durations = self._rng.lognormal(mean=6.8, sigma=0.6, size=cfg.n_videos)
        for j in range(cfg.n_videos):
            video = Video(
                video_id=f"v{j}",
                kind=type_labels[video_types[j]],
                duration=float(max(60.0, durations[j])),
            )
            self.videos[video.video_id] = video
            self._video_index[video.video_id] = j
        self._video_types = video_types

        # Zipf popularity over a random permutation of the catalogue.
        ranks = self._rng.permutation(cfg.n_videos) + 1
        self._base_popularity = 1.0 / ranks.astype(float) ** cfg.popularity_skew
        self._base_popularity /= self._base_popularity.sum()

        # Per-user type preference distribution (softmax of factor
        # affinity), kept as the CDF rows the impression sampler draws from.
        self._user_type_cdf = _choice_cdf(
            self._type_probs_for(self.user_factors)
        ).tolist()

        # Per-user favourite pools: sampled from the user's top-affinity
        # videos, weighted toward the very top (series the user follows).
        n_fav = min(cfg.favorites_per_user, cfg.n_videos)
        favorites = np.empty((cfg.n_users, n_fav), dtype=int)
        scores_all = self.user_factors @ self.video_factors.T
        pool_size = min(cfg.n_videos, max(n_fav, 3 * n_fav))
        for i in range(cfg.n_users):
            top = np.argsort(-scores_all[i])[:pool_size]
            weights = 1.0 / (np.arange(pool_size) + 1.0)
            weights /= weights.sum()
            favorites[i] = self._rng.choice(
                top, size=n_fav, replace=False, p=weights
            )
        self._favorites: list[list[int]] = favorites.tolist()

        # Videos grouped by type, with the CDF of within-type popularity.
        self._videos_of_type: list[list[int]] = []
        self._type_cdfs: list[list[float]] = []
        for k in range(cfg.n_types):
            members = np.flatnonzero(video_types == k)
            self._videos_of_type.append(members.tolist())
            if members.size:
                pop = self._base_popularity[members]
                self._type_cdfs.append(_choice_cdf(pop / pop.sum()).tolist())
            else:
                self._type_cdfs.append([])

        # ---- scenario dynamics ------------------------------------------
        # Everything above is the base world, built with exactly the same
        # RNG consumption as before scenarios existed.  Scenario-injected
        # structure uses dedicated generators so the organic stream of the
        # default world stays byte-identical.
        self.scenario = scenario if scenario is not None and getattr(
            scenario, "events", None
        ) else None
        self._n_base_videos = cfg.n_videos
        #: Unnormalised per-video weight including scenario extras.
        self._raw_popularity = self._base_popularity
        #: First day each video may be impressed (0 for the base catalogue).
        self._available_from = np.zeros(cfg.n_videos, dtype=int)
        #: Base videos in retirement order (weakest base popularity first).
        self._retire_order = np.argsort(
            self._base_popularity, kind="stable"
        )
        self._day_states: dict[int, _DayState] = {}
        self._drift_factors: dict[
            int, tuple[np.ndarray, list[list[float]]]
        ] = {}
        if self.scenario is not None:
            self._apply_scenario(self.scenario)
        self._index_to_id = list(self.videos)

    def _apply_scenario(self, scenario: "Scenario") -> None:
        """Inject scenario extras (new videos) into the catalogue."""
        cfg = self.config
        specs = scenario.extra_video_specs(cfg.days)
        if not specs:
            return
        srng = np.random.default_rng(cfg.seed * 7919 + 101)
        d = cfg.latent_dim
        tc = cfg.type_cohesion
        extra_factors = []
        extra_types = []
        extra_available = []
        # Extras enter at the base catalogue's median popularity: visible
        # once active, but not trivially dominant without an event boost.
        extra_weight = float(np.quantile(self._base_popularity, 0.5))
        for spec in specs:
            if spec.video_id in self.videos:
                raise ConfigError(
                    f"scenario video id {spec.video_id!r} collides with the "
                    "base catalogue"
                )
            k = spec.type_index % cfg.n_types
            noise = srng.normal(size=d)
            noise /= np.linalg.norm(noise)
            vec = math.sqrt(tc) * self._type_means[k] + math.sqrt(1 - tc) * noise
            duration = float(max(60.0, srng.lognormal(mean=6.8, sigma=0.6)))
            video = Video(
                video_id=spec.video_id,
                kind=self.type_labels[k],
                duration=duration,
                publish_time=spec.available_from_day * SECONDS_PER_DAY,
            )
            self._video_index[spec.video_id] = len(self._video_index)
            self.videos[spec.video_id] = video
            extra_factors.append(vec)
            extra_types.append(k)
            extra_available.append(spec.available_from_day)
        self.video_factors = np.vstack([self.video_factors, extra_factors])
        self._video_types = np.concatenate(
            [self._video_types, np.asarray(extra_types, dtype=int)]
        )
        self._raw_popularity = np.concatenate(
            [
                self._base_popularity,
                np.full(len(specs), extra_weight),
            ]
        )
        self._available_from = np.concatenate(
            [
                self._available_from,
                np.asarray(extra_available, dtype=int),
            ]
        )

    # ------------------------------------------------------------------
    # Ground-truth queries
    # ------------------------------------------------------------------

    def _effective_user_factors(self, now: float | None) -> np.ndarray:
        """User factors at ``now`` — rotated when a drift event is active."""
        if self.scenario is None or now is None:
            return self.user_factors
        day = int(now // SECONDS_PER_DAY)
        cached = self._drift_factors.get(day)
        if cached is not None:
            return cached[0]
        rotation = self.scenario.drift_rotation(day, self.config.latent_dim)
        if rotation is None:
            factors = self.user_factors
            type_cdf = self._user_type_cdf
        else:
            factors = self.user_factors @ rotation.T
            type_cdf = _choice_cdf(self._type_probs_for(factors)).tolist()
        self._drift_factors[day] = (factors, type_cdf)
        return factors

    def _type_probs_for(self, user_factors: np.ndarray) -> np.ndarray:
        """Per-user type preference softmax for a factor matrix."""
        logits = (
            user_factors @ self._type_means.T * self.config.type_temperature
        )
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        return expl / expl.sum(axis=1, keepdims=True)

    def affinity(
        self, user_id: str, video_id: str, now: float | None = None
    ) -> float:
        """True latent affinity (inner product of ground-truth factors).

        ``now`` matters only under a preference-drift scenario, where the
        ground truth itself moves mid-stream.
        """
        u = self._user_index[user_id]
        v = self._video_index[video_id]
        factors = self._effective_user_factors(now)
        return float(factors[u] @ self.video_factors[v])

    def click_probability(
        self, user_id: str, video_id: str, now: float | None = None
    ) -> float:
        """P(click | impression) under the generative click model."""
        cfg = self.config
        return _sigmoid(
            cfg.click_bias
            + cfg.click_scale * self.affinity(user_id, video_id, now=now)
        )

    # ------------------------------------------------------------------
    # Action stream generation
    # ------------------------------------------------------------------

    def _daily_popularity(self, day: int) -> np.ndarray:
        """Popularity for ``day`` with a rotating trending boost."""
        cfg = self.config
        n_trending = max(1, int(cfg.trending_fraction * cfg.n_videos))
        day_rng = np.random.default_rng(cfg.seed * 1_000_003 + day)
        trending = day_rng.choice(cfg.n_videos, size=n_trending, replace=False)
        pop = self._base_popularity.copy()
        pop[trending] *= cfg.trending_boost
        return pop / pop.sum()

    def _default_day_state(self, day: int) -> _DayState:
        """The classic organic dynamics — every field aliases base state."""
        return _DayState(
            pop_cdf=_choice_cdf(self._daily_popularity(day)).tolist(),
            videos_of_type=self._videos_of_type,
            type_cdfs=self._type_cdfs,
            favorites=self._favorites,
            active=None,
            user_factors=self.user_factors,
            type_cdf=self._user_type_cdf,
            rate_multiplier=1.0,
            start_sampler=None,
        )

    def _scenario_day_state(self, day: int) -> _DayState:
        """Dynamics for ``day`` with every scenario event applied."""
        cfg = self.config
        scenario = self.scenario
        assert scenario is not None
        n_total = self._raw_popularity.size

        # Popularity: rotating trending boost over the base catalogue (as
        # in the organic world), scenario multipliers on top, inactive
        # videos zeroed, renormalised over what remains.
        n_trending = max(1, int(cfg.trending_fraction * cfg.n_videos))
        day_rng = np.random.default_rng(cfg.seed * 1_000_003 + day)
        trending = day_rng.choice(cfg.n_videos, size=n_trending, replace=False)
        pop = self._raw_popularity.copy()
        pop[trending] *= cfg.trending_boost
        for video_id, mult in scenario.popularity_multipliers(day).items():
            idx = self._video_index.get(video_id)
            if idx is None:
                raise ConfigError(
                    f"scenario boosts unknown video {video_id!r}"
                )
            pop[idx] *= mult

        # Catalogue membership: not-yet-published extras and retired base
        # videos are inactive — never impressed, never organically engaged.
        active = self._available_from <= day
        retired = scenario.retire_count_through(day)
        if retired > 0:
            active = active.copy()
            active[self._retire_order[: min(retired, cfg.n_videos)]] = False
        if not active.any():
            raise DataError(
                f"scenario {scenario.name!r} retired the whole catalogue "
                f"by day {day}"
            )
        pop[~active] = 0.0
        total = pop.sum()
        if total <= 0:
            raise DataError(
                f"scenario {scenario.name!r} left no impressable videos "
                f"on day {day}"
            )
        pop /= total

        videos_of_type: list[list[int]] = []
        type_cdfs: list[list[float]] = []
        for k in range(cfg.n_types):
            members = np.flatnonzero((self._video_types == k) & active)
            videos_of_type.append(members.tolist())
            if members.size:
                weights = pop[members]
                wsum = weights.sum()
                type_cdfs.append(
                    _choice_cdf(
                        weights / wsum
                        if wsum > 0
                        else np.full(members.size, 1.0 / members.size)
                    ).tolist()
                )
            else:
                type_cdfs.append([])

        self._effective_user_factors(day * SECONDS_PER_DAY)
        factors, type_cdf = self._drift_factors.get(
            day, (self.user_factors, self._user_type_cdf)
        )

        wave = scenario.arrival_wave(day)
        sampler = self._wave_sampler(wave) if wave is not None else None

        return _DayState(
            pop_cdf=_choice_cdf(pop).tolist(),
            videos_of_type=videos_of_type,
            type_cdfs=type_cdfs,
            favorites=self._favorites,
            active=active if not active.all() else None,
            user_factors=factors,
            type_cdf=type_cdf,
            rate_multiplier=scenario.rate_multiplier(day),
            start_sampler=sampler,
        )

    @staticmethod
    def _wave_sampler(
        wave: tuple[float, float, float],
    ) -> Callable[[float], float]:
        """Inverse-CDF sampler of within-day session start offsets.

        Density ``max(0.05, 1 + a*sin(2*pi*t/T + phase))`` over the same
        ``[0, SECONDS_PER_DAY - 3600)`` support the uniform sampler uses,
        tabulated on a fixed grid; consumes exactly one uniform draw per
        session, like the organic path.
        """
        amplitude, period, phase = wave
        span = SECONDS_PER_DAY - 3600.0
        grid = np.linspace(0.0, span, 513)
        density = np.maximum(
            0.05, 1.0 + amplitude * np.sin(2.0 * np.pi * grid / period + phase)
        )
        cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]))])
        cdf /= cdf[-1]

        def sample(u: float) -> float:
            return float(np.interp(u, cdf, grid))

        return sample

    def _day_state(self, day: int) -> _DayState:
        if self.scenario is None:
            return self._default_day_state(day)
        state = self._day_states.get(day)
        if state is None:
            state = self._scenario_day_state(day)
            self._day_states[day] = state
        return state

    def _sample_impressions(
        self,
        user_idx: int,
        count: int,
        state: _DayState,
        rng: np.random.Generator,
    ) -> list[int]:
        """Draw ``count`` impressed videos (catalogue indices) for one session.

        Each weighted draw is :func:`_draw` over a CDF cached on
        ``state``: the pick and RNG consumption of ``rng.choice(a, p=p)``
        without its per-call validation and cumsum.
        """
        cfg = self.config
        rewatch = cfg.rewatch_mix
        browse = rewatch + cfg.popularity_mix
        pop_cdf = state.pop_cdf
        active = state.active
        favorites = state.favorites[user_idx]
        chosen: list[int] = []
        for roll in rng.random(count).tolist():
            if roll < rewatch and favorites:
                # Re-watching: revisit a personal favourite (series, show).
                pick = favorites[rng.integers(0, len(favorites))]
                if active is not None and not active[pick]:
                    # The favourite left the catalogue — the user falls
                    # back to browsing what is actually on offer.
                    pick = _draw(pop_cdf, rng)
            elif roll < browse:
                pick = _draw(pop_cdf, rng)
            else:
                k = _draw(state.type_cdf[user_idx], rng)
                members = state.videos_of_type[k]
                if members:
                    pick = members[_draw(state.type_cdfs[k], rng)]
                else:
                    pick = _draw(pop_cdf, rng)
            chosen.append(pick)
        return chosen

    def generate_actions(self, days: int | None = None) -> list[UserAction]:
        """Generate the full time-ordered action stream.

        Timestamps start at 0.0 (day 0) and span ``days`` (defaults to the
        configured world length).  Deterministic for a fixed config — and
        byte-identical to the pre-scenario generator when no scenario
        event is active.

        Session starts and the gaps between a session's events are
        uniform draws written ``lo + (hi - lo) * rng.random()``:
        ``Generator.uniform``'s own formula over the same double, bit for
        bit, without its per-call cost.
        """
        cfg = self.config
        span = days if days is not None else cfg.days
        if span < 0:
            raise ConfigError(f"days must be >= 0, got {span}")
        rng = np.random.default_rng(cfg.seed + 1)
        actions: list[UserAction] = []
        for day in range(span):
            self._generate_day(day, rng, actions)
        actions.sort(key=attrgetter("timestamp"))
        return actions

    def _generate_day(
        self, day: int, rng: np.random.Generator, out: list[UserAction]
    ) -> None:
        """Append one day of sessions — impressions and the funnel — to
        ``out``.  The loop's attributes are read into locals once."""
        cfg = self.config
        state = self._day_state(day)
        day_start = day * SECONDS_PER_DAY
        start_span = SECONDS_PER_DAY - 3600
        lam = self._activity * cfg.mean_sessions_per_day
        if state.rate_multiplier != 1.0:
            lam = lam * state.rate_multiplier
        n_sessions = rng.poisson(lam).tolist()

        random, beta = rng.random, rng.beta
        append = out.append
        sample = self._sample_impressions
        start_sampler = state.start_sampler
        user_factors = state.user_factors
        video_factors = self.video_factors
        index_to_id = self._index_to_id
        videos = self.videos
        sigmoid = _sigmoid
        impress, click, play = (
            ActionType.IMPRESS, ActionType.CLICK, ActionType.PLAY
        )
        playtime, like, comment = (
            ActionType.PLAYTIME, ActionType.LIKE, ActionType.COMMENT
        )
        per_session = cfg.impressions_per_session
        noise_click_rate = cfg.noise_click_rate
        click_bias, click_scale = cfg.click_bias, cfg.click_scale
        play_given_click = cfg.play_given_click
        time_limited_rate = cfg.time_limited_rate
        concentration = cfg.vrate_concentration

        for user_idx, sessions in enumerate(n_sessions):
            user_id = f"u{user_idx}"
            x_u = user_factors[user_idx]
            for _ in range(sessions):
                offset = start_span * random()
                if start_sampler is not None:
                    offset = start_sampler(offset / start_span)
                t = day_start + offset
                for v in sample(user_idx, per_session, state, rng):
                    video_id = index_to_id[v]
                    append(UserAction(t, user_id, video_id, impress))
                    t += 1.0 + 4.0 * random()
                    score = float(x_u @ video_factors[v])
                    noise_click = random() < noise_click_rate
                    if not noise_click:
                        p_click = sigmoid(click_bias + click_scale * score)
                        if random() >= p_click:
                            continue
                    append(UserAction(t, user_id, video_id, click))
                    t += 1.0 + 2.0 * random()
                    # Accidental clicks rarely turn into real watching.
                    p_play = (
                        0.5 * play_given_click
                        if noise_click
                        else play_given_click
                    )
                    if random() >= p_play:
                        continue
                    append(UserAction(t, user_id, video_id, play))
                    # View rate: Beta with mean increasing in affinity;
                    # accidental plays are mostly abandoned immediately —
                    # but some run long anyway (left playing, fell
                    # asleep), producing deceptively high weights:
                    # watching in its entirety is not liking.
                    if noise_click:
                        mean_vrate = 0.55 if random() < 0.3 else 0.06
                    elif random() < time_limited_rate:
                        mean_vrate = 0.15  # cut short by time, not dislike
                    else:
                        mean_vrate = min(
                            0.95,
                            max(0.05, 0.2 + 0.7 * sigmoid(2.0 * score)),
                        )
                    vrate = float(
                        beta(
                            mean_vrate * concentration,
                            (1 - mean_vrate) * concentration,
                        )
                    )
                    view_time = max(1.0, vrate * videos[video_id].duration)
                    t += view_time
                    append(
                        UserAction(t, user_id, video_id, playtime, view_time)
                    )
                    # Strong engagement occasionally produces social
                    # actions.
                    if vrate > 0.7:
                        roll = random()
                        if roll < 0.08:
                            t += 1.0 + 9.0 * random()
                            append(UserAction(t, user_id, video_id, like))
                        elif roll < 0.12:
                            t += 5.0 + 25.0 * random()
                            append(UserAction(t, user_id, video_id, comment))
                    t += 1.0 + 9.0 * random()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def user_ids(self) -> list[str]:
        return list(self.users)

    def video_ids(self) -> list[str]:
        return list(self.videos)

    def genuinely_liked(
        self,
        test_actions: Iterable["UserAction"],
        affinity_quantile: float = 0.75,
    ) -> dict[str, set[str]]:
        """Ground-truth "liked" sets for the offline protocol.

        A video counts as liked when the user *engaged* with it in the test
        window (click or stronger) **and** its true affinity is in the top
        ``1 - affinity_quantile`` of the user's affinities — i.e. the
        engagement was taste-driven, not an accidental click or a
        popularity-exposure artefact.  Real deployments cannot compute
        this (no ground truth); the synthetic world can, which removes the
        label noise that observed-weight thresholds inherit.
        """
        from .stream import is_engagement

        engaged: dict[str, set[str]] = {}
        for action in test_actions:
            if is_engagement(action):
                engaged.setdefault(action.user_id, set()).add(action.video_id)
        liked: dict[str, set[str]] = {}
        for user_id, videos in engaged.items():
            u = self._user_index[user_id]
            scores = self.video_factors @ self.user_factors[u]
            threshold = float(np.quantile(scores, affinity_quantile))
            chosen = {
                video_id
                for video_id in videos
                if scores[self._video_index[video_id]] >= threshold
            }
            if chosen:
                liked[user_id] = chosen
        return liked

    def simulate_clicks(
        self,
        user_id: str,
        recommended: Iterable[str],
        rng: np.random.Generator,
        now: float | None = None,
    ) -> list[str]:
        """Simulate which of ``recommended`` the user would click.

        Used by the experimentation harness: each shown video is clicked
        independently with its ground-truth click probability.  ``now``
        lets scenario runs evaluate against drift-rotated preferences.
        """
        clicked = []
        for video_id in recommended:
            if video_id not in self._video_index:
                continue
            if rng.random() < self.click_probability(user_id, video_id, now):
                clicked.append(video_id)
        return clicked
