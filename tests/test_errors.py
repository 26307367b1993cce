"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    CheckpointError,
    ComponentError,
    ConfigError,
    DataError,
    ModelError,
    ReliabilityError,
    ReproError,
    TopologyError,
    WALError,
)


def test_single_catchable_root():
    """Every library error derives from ReproError."""
    for exc_type in (
        ConfigError,
        ReliabilityError,
        CheckpointError,
        WALError,
        TopologyError,
        ComponentError,
        DataError,
        ModelError,
    ):
        assert issubclass(exc_type, ReproError)


def test_component_error_wraps_original():
    original = ValueError("inner")
    error = ComponentError("compute_mf", original)
    assert error.component == "compute_mf"
    assert error.original is original
    assert issubclass(ComponentError, TopologyError)


def test_library_failures_catchable_in_one_clause():
    def boom():
        raise DataError("bad row")

    with pytest.raises(ReproError):
        boom()
