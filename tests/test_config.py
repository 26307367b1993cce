"""Tests for configuration validation and overrides."""

import pytest

from repro.config import (
    TABLE2_PARAMETERS,
    ActionWeightConfig,
    MFConfig,
    OnlineConfig,
    RecommendConfig,
    ReproConfig,
    SimilarityConfig,
)
from repro.errors import ConfigError


class TestActionWeightConfig:
    def test_defaults_valid(self):
        cfg = ActionWeightConfig()
        assert cfg.a >= cfg.b > 0

    def test_playtime_span_matches_table1(self):
        """With the defaults the PlayTime weight spans [a-b, a] = [1.5, 2.5]."""
        cfg = ActionWeightConfig()
        assert cfg.a == pytest.approx(2.5)
        assert cfg.a - cfg.b == pytest.approx(1.5)

    def test_nonzero_impress_rejected(self):
        # The impression weight is fixed at 0 (§3.3): there is no field.
        with pytest.raises(TypeError):
            ActionWeightConfig(impress=0.5)

    def test_a_less_than_b_rejected(self):
        with pytest.raises(ConfigError):
            ActionWeightConfig(a=1.0, b=2.0)

    def test_vrate_floor_bounds(self):
        with pytest.raises(ConfigError):
            ActionWeightConfig(vrate_floor=0.0)
        with pytest.raises(ConfigError):
            ActionWeightConfig(vrate_floor=1.0)

    def test_floor_weight_must_not_exceed_play(self):
        # a - b*1 (floor at 0.1, log10 => -1) must be <= play weight
        with pytest.raises(ConfigError):
            ActionWeightConfig(a=5.0, b=1.0, play=1.5)

    def test_negative_click_rejected(self):
        with pytest.raises(ConfigError):
            ActionWeightConfig(click=-1.0)


class TestMFConfig:
    def test_defaults_valid(self):
        cfg = MFConfig()
        assert cfg.f >= 1
        assert cfg.lam >= 0

    @pytest.mark.parametrize("field,value", [("f", 0), ("lam", -0.1), ("init_scale", 0.0)])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            MFConfig(**{field: value})


class TestOnlineConfig:
    def test_defaults_valid(self):
        cfg = OnlineConfig()
        assert cfg.eta0 > 0
        assert cfg.alpha >= 0

    def test_zero_eta0_rejected(self):
        with pytest.raises(ConfigError):
            OnlineConfig(eta0=0.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            OnlineConfig(alpha=-0.01)

    def test_max_eta_below_eta0_rejected(self):
        with pytest.raises(ConfigError):
            OnlineConfig(eta0=0.1, max_eta=0.05)


class TestSimilarityConfig:
    def test_defaults_valid(self):
        cfg = SimilarityConfig()
        assert 0 <= cfg.beta <= 1
        assert cfg.xi > 0

    def test_beta_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            SimilarityConfig(beta=1.5)

    def test_nonpositive_xi_rejected(self):
        with pytest.raises(ConfigError):
            SimilarityConfig(xi=0.0)


class TestRecommendConfig:
    def test_defaults_valid(self):
        cfg = RecommendConfig()
        assert cfg.top_n >= 1
        assert 0 <= cfg.demographic_slots <= 1

    def test_candidates_must_cover_top_n(self):
        with pytest.raises(ConfigError):
            RecommendConfig(top_n=100, max_candidates=50)

    def test_slots_fraction_bounds(self):
        with pytest.raises(ConfigError):
            RecommendConfig(demographic_slots=1.5)


class TestReproConfig:
    def test_with_overrides_changes_only_named_fields(self):
        base = ReproConfig()
        tuned = base.with_overrides(online={"alpha": 0.0})
        assert tuned.online.alpha == 0.0
        assert tuned.online.eta0 == base.online.eta0
        assert tuned.mf == base.mf
        # original untouched (frozen)
        assert base.online.alpha != 0.0

    def test_with_overrides_multiple_sections(self):
        tuned = ReproConfig().with_overrides(
            mf={"f": 8}, similarity={"beta": 0.5}
        )
        assert tuned.mf.f == 8
        assert tuned.similarity.beta == 0.5

    def test_with_overrides_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            ReproConfig().with_overrides(nonsense={"x": 1})

    def test_with_overrides_validates_new_values(self):
        with pytest.raises(ConfigError):
            ReproConfig().with_overrides(mf={"f": 0})

    def test_table2_parameters_cover_paper_names(self):
        assert set(TABLE2_PARAMETERS) == {
            "f", "lambda", "a", "b", "eta_0", "alpha", "beta", "xi",
        }

    def test_table2_paths_resolve(self):
        cfg = ReproConfig()
        for path in TABLE2_PARAMETERS.values():
            section, field = path.split(".")
            assert hasattr(getattr(cfg, section), field)
