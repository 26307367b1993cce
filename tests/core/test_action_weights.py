"""Tests for action weighting (Table 1, Eq. 6)."""

import math

import pytest

from repro.config import ActionWeightConfig
from repro.core import LinearPlaytimeWeigher, LogPlaytimeWeigher, view_rate
from repro.core.actions import is_engagement
from repro.data import ActionType, UserAction, Video
from repro.data.stream import ENGAGEMENT_ACTIONS
from repro.errors import DataError

VIDEO = Video("v1", "type_0", duration=1000.0)


def _playtime(view_time):
    return UserAction(0.0, "u", "v1", ActionType.PLAYTIME, view_time=view_time)


def _action(kind):
    return UserAction(0.0, "u", "v1", kind)


class TestViewRate:
    def test_basic(self):
        assert view_rate(_playtime(500.0), VIDEO) == pytest.approx(0.5)

    def test_clamped_at_one(self):
        """Replays beyond nominal duration clamp to a full view."""
        assert view_rate(_playtime(2000.0), VIDEO) == 1.0

    def test_requires_playtime_action(self):
        with pytest.raises(DataError):
            view_rate(_action(ActionType.CLICK), VIDEO)

    def test_requires_video(self):
        with pytest.raises(DataError):
            view_rate(_playtime(10.0), None)


class TestLogPlaytimeWeigher:
    @pytest.fixture
    def weigher(self):
        return LogPlaytimeWeigher()

    def test_impress_weight_zero(self, weigher):
        assert weigher.weight(_action(ActionType.IMPRESS)) == 0.0

    def test_fixed_weights_ordered_by_strength(self, weigher):
        w = weigher
        assert (
            w.weight(_action(ActionType.IMPRESS))
            < w.weight(_action(ActionType.CLICK))
            < w.weight(_action(ActionType.PLAY))
            < w.weight(_action(ActionType.COMMENT))
        )

    def test_full_view_scores_a(self, weigher):
        assert weigher.weight(_playtime(1000.0), VIDEO) == pytest.approx(2.5)

    def test_floor_view_scores_a_minus_b(self, weigher):
        assert weigher.weight(_playtime(100.0), VIDEO) == pytest.approx(1.5)

    def test_eq6_formula(self, weigher):
        """w = a + b*log10(vrate) for vrate in [0.1, 1]."""
        for vrate in (0.1, 0.2, 0.5, 0.9, 1.0):
            expected = 2.5 + 1.0 * math.log10(vrate)
            assert weigher.weight(
                _playtime(vrate * 1000.0), VIDEO
            ) == pytest.approx(expected)

    def test_below_floor_falls_back_to_play_weight(self, weigher):
        """vrate < 0.1 is an 'inefficient' signal, weighted like Play."""
        w = weigher.weight(_playtime(50.0), VIDEO)
        assert w == weigher.weight(_action(ActionType.PLAY))

    def test_monotone_in_view_rate_above_floor(self, weigher):
        weights = [
            weigher.weight(_playtime(v * 1000.0), VIDEO)
            for v in (0.1, 0.3, 0.5, 0.7, 1.0)
        ]
        assert weights == sorted(weights)

    def test_no_negative_feedback(self, weigher):
        """§3.2: stopping early never generates a negative weight."""
        assert weigher.weight(_playtime(1.0), VIDEO) > 0

    def test_custom_config(self):
        cfg = ActionWeightConfig(a=2.0, b=0.5, play=1.5)
        weigher = LogPlaytimeWeigher(cfg)
        assert weigher.weight(_playtime(1000.0), VIDEO) == pytest.approx(2.0)

    def test_playtime_without_video_raises(self, weigher):
        with pytest.raises(DataError):
            weigher.weight(_playtime(10.0))


class TestLinearPlaytimeWeigher:
    def test_same_range_as_log(self):
        """The rejected alternative is calibrated to the same [a-b, a] span."""
        linear = LinearPlaytimeWeigher()
        assert linear.weight(_playtime(100.0), VIDEO) == pytest.approx(1.5)
        assert linear.weight(_playtime(1000.0), VIDEO) == pytest.approx(2.5)

    def test_linear_below_log_in_the_middle(self):
        """log10 is concave: it rewards mid view rates more than linear."""
        log_w = LogPlaytimeWeigher()
        lin_w = LinearPlaytimeWeigher()
        mid = _playtime(400.0)  # vrate 0.4
        assert log_w.weight(mid, VIDEO) > lin_w.weight(mid, VIDEO)

    def test_below_floor_same_fallback(self):
        lin = LinearPlaytimeWeigher()
        assert lin.weight(_playtime(50.0), VIDEO) == pytest.approx(1.5)

    def test_fixed_actions_identical_to_log(self):
        log_w, lin_w = LogPlaytimeWeigher(), LinearPlaytimeWeigher()
        for kind in (ActionType.CLICK, ActionType.PLAY, ActionType.LIKE):
            assert log_w.weight(_action(kind)) == lin_w.weight(_action(kind))


@pytest.mark.parametrize("kind", list(ActionType))
def test_is_engagement_is_membership_of_engagement_actions(kind):
    action = UserAction(0.0, "u", "v1", kind, view_time=1.0)
    assert is_engagement(action) == (kind in ENGAGEMENT_ACTIONS)
