"""Tests for the §6.1.2 model variants."""

import pytest

from repro.core import (
    ALL_VARIANTS,
    BINARY_MODEL,
    COMBINE_MODEL,
    CONF_MODEL,
    RatingMode,
)
from repro.core.variants import grid_searched_rates


def test_three_variants():
    assert len(ALL_VARIANTS) == 3
    assert {v.name for v in ALL_VARIANTS} == {
        "BinaryModel",
        "ConfModel",
        "CombineModel",
    }


def test_binary_model_semantics():
    assert BINARY_MODEL.rating_mode is RatingMode.BINARY
    assert not BINARY_MODEL.adjustable


def test_conf_model_semantics():
    assert CONF_MODEL.rating_mode is RatingMode.CONFIDENCE
    assert not CONF_MODEL.adjustable


def test_combine_model_semantics():
    """The paper's model: binary ratings + adjustable learning rate."""
    assert COMBINE_MODEL.rating_mode is RatingMode.BINARY
    assert COMBINE_MODEL.adjustable


def test_grid_searched_rates_cover_all_variants():
    for variant in ALL_VARIANTS:
        eta0, alpha = grid_searched_rates(variant)
        assert eta0 > 0
        assert alpha >= 0
        if not variant.adjustable:
            assert alpha == 0.0
