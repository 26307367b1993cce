"""Tests for the synthetic world generator: determinism, funnel structure,
ground-truth coherence, and the statistical regimes the experiments need."""

import numpy as np
import pytest

from repro.clock import SECONDS_PER_DAY
from repro.data import ActionType, SyntheticWorld, WorldConfig
from repro.data.synthetic import _choice_cdf, _draw, paper_world_config
from repro.errors import ConfigError
from tests.support.world import best_videos


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld(
        WorldConfig(n_users=50, n_videos=60, n_types=4, days=3, seed=5)
    )


@pytest.fixture(scope="module")
def actions(world):
    return world.generate_actions()


class TestWorldConstruction:
    def test_catalogue_sizes(self, world):
        assert len(world.users) == 50
        assert len(world.videos) == 60

    def test_video_types_within_catalogue(self, world):
        kinds = {v.kind for v in world.videos.values()}
        assert kinds <= set(world.type_labels)

    def test_durations_positive(self, world):
        assert all(v.duration >= 60.0 for v in world.videos.values())

    def test_unregistered_users_have_no_attributes(self, world):
        for user in world.users.values():
            if not user.registered:
                assert user.gender is None
                assert user.demographic_group == "global"

    def test_registered_users_have_groups(self, world):
        groups = {
            u.demographic_group
            for u in world.users.values()
            if u.registered
        }
        assert groups <= set(world.group_labels)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            WorldConfig(n_users=0)
        with pytest.raises(ConfigError):
            WorldConfig(n_types=50, n_videos=10)
        with pytest.raises(ConfigError):
            WorldConfig(popularity_mix=1.5)
        with pytest.raises(ConfigError):
            WorldConfig(days=0)


class TestDeterminism:
    def test_same_seed_same_world(self):
        cfg = WorldConfig(n_users=20, n_videos=30, days=2, seed=9)
        w1, w2 = SyntheticWorld(cfg), SyntheticWorld(cfg)
        assert np.allclose(w1.user_factors, w2.user_factors)
        assert np.allclose(w1.video_factors, w2.video_factors)
        assert w1.generate_actions() == w2.generate_actions()

    def test_different_seed_different_actions(self):
        a1 = SyntheticWorld(WorldConfig(n_users=20, n_videos=30, days=2, seed=1)).generate_actions()
        a2 = SyntheticWorld(WorldConfig(n_users=20, n_videos=30, days=2, seed=2)).generate_actions()
        assert a1 != a2


class TestActionStream:
    def test_sorted_by_time(self, actions):
        times = [a.timestamp for a in actions]
        assert times == sorted(times)

    def test_spans_configured_days(self, actions):
        assert max(a.timestamp for a in actions) < 3 * SECONDS_PER_DAY
        assert min(a.timestamp for a in actions) >= 0

    def test_known_entities_only(self, world, actions):
        assert {a.user_id for a in actions} <= set(world.users)
        assert {a.video_id for a in actions} <= set(world.videos)

    def test_funnel_order_impress_before_click(self, actions):
        """Within a (user, video) chain, CLICK never precedes IMPRESS."""
        last_impress: dict[tuple[str, str], float] = {}
        for a in actions:
            key = (a.user_id, a.video_id)
            if a.action is ActionType.IMPRESS:
                last_impress[key] = a.timestamp
            elif a.action is ActionType.CLICK:
                assert key in last_impress
                assert last_impress[key] <= a.timestamp

    def test_playtime_view_rate_in_bounds(self, world, actions):
        for a in actions:
            if a.action is ActionType.PLAYTIME:
                vrate = a.view_time / world.videos[a.video_id].duration
                assert 0 < vrate <= 1.0 + 1e-9

    def test_impressions_dominate(self, actions):
        """The funnel means impressions outnumber every other action."""
        from collections import Counter

        counts = Counter(a.action for a in actions)
        assert counts[ActionType.IMPRESS] > counts[ActionType.CLICK]
        assert counts[ActionType.CLICK] >= counts[ActionType.PLAY]
        assert counts[ActionType.PLAY] >= counts[ActionType.PLAYTIME] * 0.99

    def test_generate_partial_days(self, world):
        short = world.generate_actions(days=1)
        assert max(a.timestamp for a in short) < SECONDS_PER_DAY

    def test_negative_days_rejected(self, world):
        with pytest.raises(ConfigError):
            world.generate_actions(days=-3)


class TestGroundTruth:
    def test_affinity_symmetric_to_factors(self, world):
        u, v = "u0", "v0"
        expected = float(world.user_factors[0] @ world.video_factors[0])
        assert world.affinity(u, v) == pytest.approx(expected)

    def test_click_probability_monotone_in_affinity(self, world):
        user = "u0"
        scored = sorted(
            world.videos, key=lambda v: world.affinity(user, v)
        )
        low, high = scored[0], scored[-1]
        assert world.click_probability(user, low) < world.click_probability(
            user, high
        )

    def test_best_videos_sorted_by_affinity(self, world):
        best = best_videos(world, "u3", k=5)
        affinities = [world.affinity("u3", v) for v in best]
        assert affinities == sorted(affinities, reverse=True)

    def test_clicks_correlate_with_affinity(self, world, actions):
        """Engaged (clicked) videos have higher mean affinity than impressed
        non-clicked ones — the signal every model in the paper learns."""
        clicked, unclicked = [], []
        clicked_keys = {
            (a.user_id, a.video_id)
            for a in actions
            if a.action is ActionType.CLICK
        }
        for a in actions:
            if a.action is ActionType.IMPRESS:
                aff = world.affinity(a.user_id, a.video_id)
                if (a.user_id, a.video_id) in clicked_keys:
                    clicked.append(aff)
                else:
                    unclicked.append(aff)
        assert np.mean(clicked) > np.mean(unclicked) + 0.1

    def test_simulate_clicks_respects_catalogue(self, world):
        rng = np.random.default_rng(0)
        clicked = world.simulate_clicks("u0", ["v0", "ghost", "v1"], rng)
        assert "ghost" not in clicked

    def test_simulate_clicks_rate_tracks_probability(self, world):
        rng = np.random.default_rng(0)
        video = best_videos(world, "u0", 1)[0]
        p = world.click_probability("u0", video)
        hits = sum(
            1 for _ in range(500) if world.simulate_clicks("u0", [video], rng)
        )
        assert hits / 500 == pytest.approx(p, abs=0.08)

    def test_genuinely_liked_requires_engagement_and_affinity(self, world, actions):
        liked = world.genuinely_liked(actions)
        for user_id, videos in liked.items():
            u = world._user_index[user_id]
            scores = world.video_factors @ world.user_factors[u]
            threshold = np.quantile(scores, 0.75)
            for video_id in videos:
                assert scores[world._video_index[video_id]] >= threshold


class TestPaperWorldConfig:
    def test_defaults(self):
        cfg = paper_world_config()
        assert cfg.n_users == 300
        assert cfg.n_videos == 400
        assert cfg.days == 7

    def test_overrides(self):
        cfg = paper_world_config(n_users=10, noise_click_rate=0.5)
        assert cfg.n_users == 10
        assert cfg.noise_click_rate == 0.5


def _random_p(rng, size, zero_share):
    """A probability vector with about ``zero_share`` of its entries 0."""
    weights = rng.random(size) ** 3
    weights[rng.random(size) < zero_share] = 0.0
    if not weights.any():
        weights[rng.integers(0, size)] = 1.0
    return weights / weights.sum()


def _assert_same_stream(draws):
    """``draws(rng, use_cdf)`` picks with ``choice`` or the cached CDF; both
    must pick the same values and leave the generator in the same state."""
    choice_rng, cdf_rng = np.random.default_rng(7), np.random.default_rng(7)
    assert draws(choice_rng, False) == draws(cdf_rng, True)
    assert choice_rng.bit_generator.state == cdf_rng.bit_generator.state


class TestCachedCdfSampler:
    """The impression sampler's draw is ``Generator.choice``'s, draw for
    draw: same picks, same RNG consumption, same ``p`` validation."""

    def test_matches_choice_with_zero_entries(self):
        ps = [
            _random_p(np.random.default_rng(i), 1 + i % 40, i % 5 / 5)
            for i in range(200)
        ]
        cdfs = [_choice_cdf(p) for p in ps]

        def draws(rng, use_cdf):
            picks = []
            for p, cdf in zip(ps, cdfs):
                for _ in range(5):
                    if use_cdf:
                        picks.append(_draw(cdf, rng))
                    else:
                        picks.append(int(rng.choice(p.size, p=p)))
                    # Other draws interleave, as in a session.
                    picks.append(int(rng.integers(0, 10)))
            return picks

        _assert_same_stream(draws)

    def test_matches_choice_over_member_arrays(self):
        member_sets = [
            np.array([17]),  # a one-member type
            np.array([3, 9, 40]),
            np.arange(5, 60, 4),
        ]
        ps = [
            _random_p(np.random.default_rng(i), m.size, 0.2)
            for i, m in enumerate(member_sets)
        ]
        cdfs = [_choice_cdf(p) for p in ps]

        def draws(rng, use_cdf):
            picks = []
            for _ in range(100):
                for members, p, cdf in zip(member_sets, ps, cdfs):
                    if use_cdf:
                        picks.append(int(members[_draw(cdf, rng)]))
                    else:
                        picks.append(int(rng.choice(members, p=p)))
            return picks

        _assert_same_stream(draws)

    def test_matches_choice_over_per_user_cdf_rows(self):
        world = SyntheticWorld(
            paper_world_config(n_users=60, n_videos=80, seed=11)
        )
        type_probs = world._type_probs_for(world.user_factors)
        cdf = _choice_cdf(type_probs)
        assert cdf.shape == type_probs.shape
        for row, probs in zip(cdf, type_probs):
            assert np.array_equal(row, _choice_cdf(probs))

        def draws(rng, use_cdf):
            picks = []
            for _ in range(20):
                for u, probs in enumerate(type_probs):
                    if use_cdf:
                        picks.append(_draw(cdf[u], rng))
                    else:
                        picks.append(int(rng.choice(probs.size, p=probs)))
            return picks

        _assert_same_stream(draws)

    @pytest.mark.parametrize(
        "p",
        [[0.5, -0.1, 0.6], [0.5, 0.6], [0.2, 0.2]],
        ids=["negative", "over-one", "under-one"],
    )
    def test_invalid_p_raises_like_choice(self, p):
        p = np.array(p)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(p.size, p=p)
        with pytest.raises(ValueError):
            _choice_cdf(p)
        # One bad row spoils a per-user matrix.
        with pytest.raises(ValueError):
            _choice_cdf(np.vstack([np.full(p.size, 1 / p.size), p]))


class _Fixed:
    """A generator stand-in whose next double is ``x``."""

    def __init__(self, x):
        self.x = x

    def random(self):
        return self.x


class TestPlainDoubleDraws:
    """The generator's draws from plain doubles are numpy's, bit for bit:
    ``lo + (hi - lo) * random()`` is ``uniform(lo, hi)``, and
    ``bisect_right`` over a CDF's list copy is ``searchsorted`` on it."""

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, SECONDS_PER_DAY - 3600),  # session start
            (1.0, 5.0),  # after an impression
            (1.0, 3.0),  # after a click
            (1.0, 10.0),  # after a like, and between impressions
            (5.0, 30.0),  # after a comment
        ],
    )
    def test_uniform_formula_matches_generator_uniform(self, lo, hi):
        uniform_rng, plain_rng = (np.random.default_rng(11) for _ in "ab")
        n = 50_000
        expected = [uniform_rng.uniform(lo, hi) for _ in range(n)]
        random = plain_rng.random
        got = [lo + (hi - lo) * random() for _ in range(n)]
        assert [x.hex() for x in got] == [float(x).hex() for x in expected]
        assert (
            uniform_rng.bit_generator.state == plain_rng.bit_generator.state
        )

    def test_draw_on_exact_cdf_values_matches_searchsorted(self):
        rng = np.random.default_rng(5)
        # Zero-probability entries repeat a CDF value, leading, inside
        # and trailing.
        cdfs = [_choice_cdf(np.array([0.0, 0.5, 0.0, 0.0, 0.5, 0.0]))]
        cdfs += [
            _choice_cdf(_random_p(rng, 1 + i % 40, i % 5 / 5))
            for i in range(200)
        ]
        assert cdfs[0].tolist() == [0.0, 0.5, 0.5, 0.5, 1.0, 1.0]
        assert _draw(cdfs[0].tolist(), _Fixed(0.5)) == 4
        for cdf in cdfs:
            values = cdf.tolist()
            # Draws equal to a CDF value, between values, and at 0.
            probes = values + [0.0] + rng.random(20).tolist()
            for x in probes:
                assert _draw(values, _Fixed(x)) == int(
                    cdf.searchsorted(x, side="right")
                )

    def test_draw_on_list_matches_searchsorted_on_array(self):
        cdfs = [
            _choice_cdf(_random_p(np.random.default_rng(i), 1 + i % 30, 0.4))
            for i in range(100)
        ]
        list_rng, array_rng = (np.random.default_rng(3) for _ in "ab")
        for cdf in cdfs:
            values = cdf.tolist()
            for _ in range(10):
                assert _draw(values, list_rng) == int(
                    cdf.searchsorted(array_rng.random(), side="right")
                )
        assert list_rng.bit_generator.state == array_rng.bit_generator.state
