"""Tests for scenario timelines, reports, and the end-to-end runner."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.eval.scenarios import (
    SCENARIO_LIBRARY,
    SCENARIO_REPORT_SCHEMA_VERSION,
    CatalogChurn,
    DiurnalWave,
    FlashCrowd,
    PreferenceDrift,
    Scenario,
    ScenarioReport,
    _ctr_ordering_ok,
    _plane_rotation,
    run_scenario,
    validate_scenario_report,
)

_GOLDEN = Path(__file__).parent / "golden" / "scenario_docs.json"


class TestEventValidation:
    def test_flash_crowd_rejects_bad_knobs(self):
        with pytest.raises(ConfigError):
            FlashCrowd(day=-1)
        with pytest.raises(ConfigError):
            FlashCrowd(duration_days=0)
        with pytest.raises(ConfigError):
            FlashCrowd(boost=1.0)

    def test_catalog_churn_rejects_negative(self):
        with pytest.raises(ConfigError):
            CatalogChurn(start_day=-1)
        with pytest.raises(ConfigError):
            CatalogChurn(adds_per_day=-1)

    def test_diurnal_rejects_bad_amplitude(self):
        with pytest.raises(ConfigError):
            DiurnalWave(amplitude=0.0)
        with pytest.raises(ConfigError):
            DiurnalWave(amplitude=1.5)
        with pytest.raises(ConfigError):
            DiurnalWave(period_seconds=0.0)

    def test_drift_rejects_bad_angle(self):
        with pytest.raises(ConfigError):
            PreferenceDrift(angle_degrees=0.0)
        with pytest.raises(ConfigError):
            PreferenceDrift(angle_degrees=270.0)

    def test_scenario_name_must_be_slug(self):
        with pytest.raises(ConfigError):
            Scenario("")
        with pytest.raises(ConfigError):
            Scenario("no spaces allowed")


class TestComposition:
    def test_popularity_multipliers_compose_multiplicatively(self):
        scen = Scenario(
            "combo",
            (
                FlashCrowd(day=1, duration_days=2, boost=10.0, video_id="v1"),
                FlashCrowd(day=2, duration_days=1, boost=3.0, video_id="v1"),
            ),
        )
        assert scen.popularity_multipliers(1) == {"v1": 10.0}
        assert scen.popularity_multipliers(2) == {"v1": 30.0}
        assert scen.popularity_multipliers(4) == {}

    def test_rate_multipliers_compose(self):
        scen = Scenario(
            "combo",
            (
                FlashCrowd(day=1, duration_days=1, rate_spike=2.0, video_id="v0"),
                FlashCrowd(day=1, duration_days=1, rate_spike=1.5, video_id="v1"),
            ),
        )
        assert scen.rate_multiplier(1) == pytest.approx(3.0)
        assert scen.rate_multiplier(0) == 1.0

    def test_retires_accumulate_across_events(self):
        scen = Scenario(
            "combo",
            (
                CatalogChurn(start_day=0, adds_per_day=0, retires_per_day=1),
                CatalogChurn(start_day=2, adds_per_day=0, retires_per_day=2),
            ),
        )
        assert scen.retire_count_through(0) == 1
        assert scen.retire_count_through(2) == 3 + 2

    def test_duplicate_extra_ids_rejected(self):
        scen = Scenario(
            "combo",
            (
                CatalogChurn(start_day=0, adds_per_day=1, retires_per_day=0),
                CatalogChurn(start_day=0, adds_per_day=1, retires_per_day=0),
            ),
        )
        with pytest.raises(ConfigError):
            scen.extra_video_specs(days=3)

    def test_describe_names_events(self):
        scen = Scenario("flash", (FlashCrowd(),))
        assert "FlashCrowd" in scen.describe()
        assert "baseline" in Scenario("baseline").describe()

    def test_library_covers_the_four_regimes(self):
        assert set(SCENARIO_LIBRARY) == {
            "flash_crowd",
            "catalog_churn",
            "diurnal_wave",
            "preference_drift",
        }
        for name, factory in SCENARIO_LIBRARY.items():
            scen = factory()
            assert scen.name == name
            assert scen.events


class TestPlaneRotation:
    def test_rotation_is_orthogonal(self):
        rot = _plane_rotation(8, math.radians(75.0), seed=7)
        assert np.allclose(rot @ rot.T, np.eye(8), atol=1e-10)
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_rotation_moves_vectors_by_the_angle_at_most(self):
        angle = math.radians(60.0)
        rot = _plane_rotation(6, angle, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.normal(size=6)
            w = rot @ v
            cos = float(v @ w / (np.linalg.norm(v) * np.linalg.norm(w)))
            assert cos >= math.cos(angle) - 1e-9

    def test_deterministic_in_seed(self):
        a = _plane_rotation(8, 1.0, seed=5)
        b = _plane_rotation(8, 1.0, seed=5)
        c = _plane_rotation(8, 1.0, seed=6)
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)

    def test_degenerate_dim_is_identity(self):
        assert np.array_equal(_plane_rotation(1, 1.0, seed=0), np.eye(1))


def _report(**overrides):
    base = dict(
        scenario="flash_crowd",
        events=("FlashCrowd",),
        days=6,
        arms={
            "Hot": {
                "overall_ctr": 0.2,
                "impressions": 100,
                "clicks": 20,
                "daily_ctr": [0.2, None],
            },
            "rMF": {
                "overall_ctr": 0.4,
                "impressions": 100,
                "clicks": 40,
                "daily_ctr": [0.4, 0.4],
            },
        },
        ctr_ordering_ok=True,
    )
    base.update(overrides)
    return ScenarioReport(**base)


class TestScenarioReport:
    def test_valid_report_round_trips_through_json(self):
        doc = _report().to_doc()
        assert validate_scenario_report(doc) == []
        again = json.loads(json.dumps(doc))
        assert validate_scenario_report(again) == []
        assert again["schema_version"] == SCENARIO_REPORT_SCHEMA_VERSION

    def test_flat_metrics_naming(self):
        flat = _report().flat_metrics()
        assert flat["flash_crowd_ctr_hot"] == pytest.approx(0.2)
        assert flat["flash_crowd_ctr_rmf"] == pytest.approx(0.4)
        assert flat["flash_crowd_ordering_ok"] == 1.0
        assert len(flat) == 3

    def test_never_served_arm_dropped_from_flat_metrics(self):
        report = _report(
            arms={
                "Hot": {
                    "overall_ctr": None,
                    "impressions": 0,
                    "clicks": 0,
                    "daily_ctr": [None],
                },
            },
            ctr_ordering_ok=False,
        )
        flat = report.flat_metrics()
        assert "flash_crowd_ctr_hot" not in flat
        assert flat["flash_crowd_ordering_ok"] == 0.0

    def test_to_doc_refuses_an_invalid_report(self):
        report = _report(days=0)
        with pytest.raises(ValueError, match="days must be"):
            report.to_doc()

    def test_validator_catches_each_defect(self):
        good = _report().to_doc()
        for mutate, needle in [
            (lambda d: d.update(schema_version=1), "schema_version"),
            (lambda d: d.update(days=0), "days"),
            (lambda d: d.update(arms={}), "arms"),
            (lambda d: d.update(ctr_ordering_ok="yes"), "ctr_ordering_ok"),
            (lambda d: d.update(extra_key=1), "unknown top-level"),
            (lambda d: d.update(ops={}), "unknown top-level"),
            (lambda d: d["arms"]["Hot"].pop("daily_ctr"), "daily_ctr"),
        ]:
            doc = json.loads(json.dumps(good))
            mutate(doc)
            errors = validate_scenario_report(doc)
            assert errors and any(needle in e for e in errors), (needle, errors)

    def test_validator_rejects_non_object(self):
        assert validate_scenario_report([1, 2]) != []


class TestCtrOrdering:
    def test_paper_ordering_accepted(self):
        assert _ctr_ordering_ok(
            {"Hot": 0.2, "AR": 0.35, "SimHash": 0.36, "rMF": 0.44}
        )

    def test_rmf_within_tolerance_of_mids_accepted(self):
        assert _ctr_ordering_ok(
            {"Hot": 0.2, "AR": 0.35, "SimHash": 0.40, "rMF": 0.395}
        )

    def test_hot_winning_rejected(self):
        assert not _ctr_ordering_ok(
            {"Hot": 0.5, "AR": 0.35, "SimHash": 0.36, "rMF": 0.44}
        )

    def test_rmf_losing_rejected(self):
        assert not _ctr_ordering_ok(
            {"Hot": 0.2, "AR": 0.35, "SimHash": 0.45, "rMF": 0.40}
        )

    def test_missing_arms_rejected(self):
        assert not _ctr_ordering_ok({"Hot": 0.2})


class _CheapArm:
    """A trivial arm so run_scenario tests stay fast."""

    def __init__(self, recs):
        self.recs = list(recs)

    def observe(self, action):
        pass

    def recommend_ids(self, user_id, current_video=None, n=10, now=None):
        return self.recs[:n]


def _run_small(scen):
    from repro.data.synthetic import SyntheticWorld, paper_world_config

    world = SyntheticWorld(
        paper_world_config(n_users=30, n_videos=40, days=3, seed=4),
        scenario=scen,
    )
    ids = world.video_ids()
    arms = {
        "Hot": _CheapArm(ids[:10]),
        "AR": _CheapArm(ids[5:15]),
        "SimHash": _CheapArm(ids[10:20]),
        "rMF": _CheapArm(ids[15:25]),
    }
    return run_scenario(
        scen, days=3, n_users=30, n_videos=40, seed=4, arms=arms
    )


def test_report_identical_to_recorded():
    """The whole report, byte for byte, against the recorded documents:
    every impression, click and daily CTR of every arm, so a world, an
    experiment loop or an interleaving that draws in another order fails
    here."""
    recorded = json.loads(_GOLDEN.read_text(encoding="utf-8"))
    scenarios = {
        "flash_crowd": SCENARIO_LIBRARY["flash_crowd"](day=1, duration_days=1),
        "preference_drift": SCENARIO_LIBRARY["preference_drift"](day=1),
        "organic": Scenario("organic"),
    }
    assert sorted(recorded) == sorted(scenarios)
    for name, scen in scenarios.items():
        doc = _run_small(scen).to_doc()
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            recorded[name], sort_keys=True
        ), name


class TestRunScenarioEndToEnd:
    @pytest.fixture(scope="class")
    def report(self):
        return _run_small(
            SCENARIO_LIBRARY["flash_crowd"](day=1, duration_days=1)
        )

    def test_report_document_is_valid(self, report):
        doc = report.to_doc()
        assert validate_scenario_report(doc) == []
        assert doc["scenario"] == "flash_crowd"
        assert doc["events"] == ["FlashCrowd"]
        assert doc["days"] == 3

    def test_every_arm_accounted(self, report):
        for name in ("Hot", "AR", "SimHash", "rMF"):
            stats = report.arms[name]
            assert stats["impressions"] > 0
            assert len(stats["daily_ctr"]) == 3
