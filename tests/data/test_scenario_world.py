"""Scenario-driven world dynamics + the byte-identity golden test.

The scenario refactor moved ``SyntheticWorld``'s per-day dynamics behind
a ``_DayState``; the contract is that a world with no scenario (or an
event-free one) generates **byte-identical** output to the pre-refactor
generator.  The golden digests below were captured from the pre-refactor
implementation — if they ever change, the organic world changed, which
invalidates every calibrated benchmark number in the repo.
"""

import hashlib

import numpy as np
import pytest

from repro.clock import SECONDS_PER_DAY
from repro.data import SyntheticWorld, WorldConfig
from repro.data.synthetic import paper_world_config
from repro.errors import ConfigError
from repro.eval.scenarios import (
    CatalogChurn,
    FlashCrowd,
    PreferenceDrift,
    Scenario,
    catalog_churn,
    diurnal_wave,
    flash_crowd,
    preference_drift,
)
from tests.support.world import best_videos

# Captured from the pre-scenario generator (commit before this refactor).
GOLDEN_STREAM_SMALL = (
    "1f0df065ab8d8e91c46196dfa626c6075432457efad5a93745f03e073cb4eff0"
)
GOLDEN_STREAM_PAPER = (
    "5ded020ec1bce076d7e4c8901ff216bd57101e23b23cb97afab39391625e6c88"
)
GOLDEN_ARRAYS_SMALL = (
    "fd97cfddf29bc06d1c7b63c9a05de5adb7340cb1ce2d076b71e2448f98ee3a41"
)


def _stream_digest(world):
    h = hashlib.sha256()
    for a in world.generate_actions():
        h.update(
            repr(
                (
                    round(a.timestamp, 9),
                    a.user_id,
                    a.video_id,
                    a.action.value,
                    a.view_time,
                )
            ).encode()
        )
    return h.hexdigest()


class TestByteIdentity:
    def test_default_world_stream_matches_golden(self):
        world = SyntheticWorld(
            WorldConfig(n_users=40, n_videos=60, days=3, seed=77)
        )
        assert _stream_digest(world) == GOLDEN_STREAM_SMALL

    def test_paper_world_stream_matches_golden(self):
        world = SyntheticWorld(
            paper_world_config(n_users=50, n_videos=80, days=4, seed=2016)
        )
        assert _stream_digest(world) == GOLDEN_STREAM_PAPER

    def test_world_arrays_match_golden(self):
        world = SyntheticWorld(
            WorldConfig(n_users=40, n_videos=60, days=3, seed=77)
        )
        h = hashlib.sha256()
        for arr in (
            world.user_factors,
            world.video_factors,
            world._base_popularity,
            world._activity,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == GOLDEN_ARRAYS_SMALL

    def test_event_free_scenario_is_byte_identical(self):
        cfg = WorldConfig(n_users=30, n_videos=40, days=2, seed=9)
        plain = SyntheticWorld(cfg).generate_actions()
        scenario = SyntheticWorld(cfg, scenario=Scenario("baseline")).generate_actions()
        assert plain == scenario


# Full-precision digests (``repr`` of every float, every field) of the
# worlds the end-to-end benchmark boots — ``paper_world_config(seed=2016)``
# at the train_stream, serve_while_train and durable_ingest_recover sizes —
# and of a flash-crowd + catalog-churn world, whose retirements send
# re-watches of inactive favourites to the popularity fallback.  Captured
# from the ``Generator.choice``-based sampler, before it drew from cached
# CDFs.
GOLDEN_FULL_PRECISION = {
    "paper_120x200": (
        "04dea60ba6f8f5bc5a018adaea2bc8babab42f4a0acb171bee0f1bf7ab7b3262"
    ),
    "paper_20x150": (
        "6a82d61416cd243818582131fa0f8526eb9b6a1a44c30f6295124b95b6de35c2"
    ),
    "paper_16x60": (
        "1fd116c0da030c6119431594e0c16601cea468c0beb6e7cc9f21a13610b811a4"
    ),
    "flash_crowd_churn": (
        "0f3a43f851fe7bd1686137a314d40f2accf9418adb51de16716007927bfda645"
    ),
}


def _full_precision_digest(actions):
    h = hashlib.sha256()
    for a in actions:
        h.update(
            f"{a.timestamp!r}\t{a.user_id}\t{a.video_id}\t"
            f"{a.action.value}\t{a.view_time!r}\n".encode()
        )
    return h.hexdigest()


def _golden_world(name):
    if name == "flash_crowd_churn":
        scenario = Scenario(
            "flash_crowd_churn",
            flash_crowd(day=2, duration_days=2).events
            + catalog_churn(
                start_day=1, adds_per_day=3, retires_per_day=8
            ).events,
        )
        return SyntheticWorld(
            paper_world_config(n_users=40, n_videos=60, days=6, seed=2016),
            scenario=scenario,
        )
    n_users, n_videos = map(int, name.removeprefix("paper_").split("x"))
    return SyntheticWorld(
        paper_world_config(seed=2016, n_users=n_users, n_videos=n_videos)
    )


# Full-precision digests of a diurnal-wave world (its start sampler maps
# every session-start draw) and a preference-drift world (days 3-5 draw
# types from rotated per-user CDF rows).  Captured from the
# ``Generator.uniform`` / ``searchsorted`` sampler, before the generator
# drew its uniforms and weighted picks from plain doubles.
GOLDEN_SCENARIO_FULL_PRECISION = {
    "diurnal_wave": (
        "31da292d89fe7c88e9c6911b8da6644751d4bac2f188b711a243b2f6636a586b"
    ),
    "preference_drift": (
        "29c3125a3dc6499d869d89e829ed4db9dd3530e7fb4f6ad7d41f3d710183d937"
    ),
}


def _scenario_golden_world(name):
    scenario = (
        diurnal_wave(amplitude=0.7)
        if name == "diurnal_wave"
        else preference_drift(day=3, angle_degrees=90.0)
    )
    return SyntheticWorld(
        paper_world_config(n_users=40, n_videos=60, days=6, seed=2016),
        scenario=scenario,
    )


class TestFullPrecisionGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FULL_PRECISION))
    def test_stream_matches_golden(self, name):
        actions = _golden_world(name).generate_actions()
        assert _full_precision_digest(actions) == GOLDEN_FULL_PRECISION[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIO_FULL_PRECISION))
    def test_scenario_stream_matches_golden(self, name):
        actions = _scenario_golden_world(name).generate_actions()
        assert (
            _full_precision_digest(actions)
            == GOLDEN_SCENARIO_FULL_PRECISION[name]
        )

    def test_drift_world_draws_from_rotated_type_rows(self):
        world = _scenario_golden_world("preference_drift")
        first, before, after = (world._day_state(d) for d in (0, 2, 3))
        assert before.type_cdf is first.type_cdf
        assert after.type_cdf is not before.type_cdf

    def test_scenario_world_exercises_the_inactive_favourite_fallback(self):
        world = _golden_world("flash_crowd_churn")
        last = world._day_state(world.config.days - 1)
        assert last.active is not None
        assert not last.active[last.favorites].all()


@pytest.fixture(scope="module")
def base_cfg():
    return WorldConfig(n_users=40, n_videos=50, days=6, seed=21)


class TestFlashCrowd:
    def test_viral_video_injected_and_boosted(self, base_cfg):
        scen = flash_crowd(day=2, duration_days=2, boost=60.0)
        world = SyntheticWorld(base_cfg, scenario=scen)
        assert "viral_0" in world.videos
        assert world.videos["viral_0"].publish_time == 2 * SECONDS_PER_DAY
        actions = world.generate_actions()
        viral = [a for a in actions if a.video_id == "viral_0"]
        assert viral, "the viral video never surfaced"
        first_day = min(a.timestamp for a in viral) // SECONDS_PER_DAY
        assert first_day >= 2

        # During the event the viral video dominates impressions.
        def impressions_on(day):
            return sum(
                1
                for a in actions
                if a.video_id == "viral_0"
                and day * SECONDS_PER_DAY
                <= a.timestamp
                < (day + 1) * SECONDS_PER_DAY
            )

        assert impressions_on(2) + impressions_on(3) > 10 * (
            impressions_on(4) + impressions_on(5) + 1
        ) or impressions_on(4) + impressions_on(5) == 0

    def test_rate_spike_raises_session_volume(self, base_cfg):
        quiet = SyntheticWorld(base_cfg).generate_actions()
        spiky = SyntheticWorld(
            base_cfg,
            scenario=Scenario(
                "flash_crowd",
                (FlashCrowd(day=2, duration_days=1, rate_spike=3.0),),
            ),
        ).generate_actions()

        def count_day(actions, day):
            return sum(
                1
                for a in actions
                if day * SECONDS_PER_DAY
                <= a.timestamp
                < (day + 1) * SECONDS_PER_DAY
            )

        assert count_day(spiky, 2) > 1.5 * count_day(quiet, 2)
        # Days before the event are not byte-identical (popularity renorm
        # differs) but volume stays in the same regime.
        assert count_day(spiky, 0) < 1.5 * count_day(quiet, 0)

    def test_existing_video_can_go_viral(self, base_cfg):
        scen = flash_crowd(day=1, duration_days=1, video_id="v3")
        world = SyntheticWorld(base_cfg, scenario=scen)
        assert "viral_0" not in world.videos
        actions = world.generate_actions()
        day1 = [
            a
            for a in actions
            if SECONDS_PER_DAY <= a.timestamp < 2 * SECONDS_PER_DAY
            and a.video_id == "v3"
        ]
        assert len(day1) > 20


class TestCatalogChurn:
    def test_extras_only_surface_from_their_day(self, base_cfg):
        scen = catalog_churn(start_day=2, adds_per_day=3, retires_per_day=2)
        world = SyntheticWorld(base_cfg, scenario=scen)
        actions = world.generate_actions()
        for a in actions:
            if a.video_id.startswith("new_d"):
                available = int(a.video_id.split("_")[1][1:])
                assert a.timestamp >= available * SECONDS_PER_DAY

    def test_retired_videos_stop_appearing(self, base_cfg):
        scen = catalog_churn(start_day=1, adds_per_day=0, retires_per_day=5)
        world = SyntheticWorld(base_cfg, scenario=scen)
        actions = world.generate_actions()
        # By day 1, the 5 weakest base videos are retired.
        retired = [f"v{j}" for j in world._retire_order[:5]]
        for a in actions:
            if a.timestamp >= SECONDS_PER_DAY:
                assert a.video_id not in retired

    def test_retiring_everything_raises(self):
        cfg = WorldConfig(n_users=10, n_videos=8, days=3, seed=1)
        scen = catalog_churn(start_day=0, adds_per_day=0, retires_per_day=8)
        with pytest.raises(Exception):
            SyntheticWorld(cfg, scenario=scen).generate_actions()

    def test_cold_start_only_adds(self, base_cfg):
        scen = catalog_churn(start_day=1, adds_per_day=4, retires_per_day=0)
        world = SyntheticWorld(base_cfg, scenario=scen)
        assert len(world.videos) == base_cfg.n_videos + 4 * 5
        actions = world.generate_actions()
        base_seen = {a.video_id for a in actions if a.video_id.startswith("v")}
        assert len(base_seen) > 0.5 * base_cfg.n_videos

    def test_id_collision_rejected(self, base_cfg):
        scen = Scenario(
            "bad", (CatalogChurn(start_day=0, adds_per_day=1),)
        )
        # Forge a collision by naming an extra after a base video.
        from repro.eval.scenarios import ExtraVideoSpec

        class Colliding(CatalogChurn):
            def extra_video_specs(self, days):
                return [ExtraVideoSpec("v0", 0, 0)]

        with pytest.raises(ConfigError):
            SyntheticWorld(
                base_cfg, scenario=Scenario("bad", (Colliding(),))
            )


class TestPreferenceDrift:
    def test_ground_truth_rotates_after_drift_day(self, base_cfg):
        scen = preference_drift(day=3, angle_degrees=90.0)
        world = SyntheticWorld(base_cfg, scenario=scen)
        before = world.affinity("u0", "v0", now=2 * SECONDS_PER_DAY)
        after = world.affinity("u0", "v0", now=3 * SECONDS_PER_DAY)
        no_time = world.affinity("u0", "v0")
        assert before == no_time  # pre-drift == base ground truth
        assert after != before

        top_before = best_videos(world, "u0", k=5, now=2 * SECONDS_PER_DAY)
        top_after = best_videos(world, "u0", k=5, now=4 * SECONDS_PER_DAY)
        assert top_before != top_after

    def test_rotation_preserves_norms(self, base_cfg):
        scen = preference_drift(day=1, angle_degrees=75.0)
        world = SyntheticWorld(base_cfg, scenario=scen)
        base = world.user_factors
        rotated = world._effective_user_factors(2 * SECONDS_PER_DAY)
        assert np.allclose(
            np.linalg.norm(base, axis=1), np.linalg.norm(rotated, axis=1)
        )
        assert not np.allclose(base, rotated)

    def test_click_stream_shifts_after_drift(self, base_cfg):
        scen = preference_drift(day=3, angle_degrees=120.0)
        drifted = SyntheticWorld(base_cfg, scenario=scen).generate_actions()
        plain = SyntheticWorld(base_cfg).generate_actions()

        def clicks_by_video(actions, from_day):
            out = {}
            for a in actions:
                if a.timestamp >= from_day * SECONDS_PER_DAY and a.action.value == "click":
                    out[a.video_id] = out.get(a.video_id, 0) + 1
            return out

        # Pre-drift days follow the same dynamics (same popularity path);
        # post-drift click patterns must diverge.
        assert clicks_by_video(drifted, 3) != clicks_by_video(plain, 3)


class TestDiurnalWave:
    def test_session_starts_follow_the_wave(self, base_cfg):
        scen = diurnal_wave(amplitude=0.9)
        wavy = SyntheticWorld(base_cfg, scenario=scen).generate_actions()
        # Phase -pi/2: trough at the start of the day, peak mid-day.
        sessions = [a.timestamp % SECONDS_PER_DAY for a in wavy]
        third = SECONDS_PER_DAY / 3.0
        early = sum(1 for s in sessions if s < third)
        mid = sum(1 for s in sessions if third <= s < 2 * third)
        assert mid > 1.3 * early

    def test_total_volume_roughly_preserved(self, base_cfg):
        plain = SyntheticWorld(base_cfg).generate_actions()
        wavy = SyntheticWorld(
            base_cfg, scenario=diurnal_wave(amplitude=0.7)
        ).generate_actions()
        assert 0.7 < len(wavy) / len(plain) < 1.3
