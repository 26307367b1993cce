"""Tests for the public API surface: exports resolve and stay consistent."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.data",
    "repro.storm",
    "repro.topology",
    "repro.baselines",
    "repro.eval",
    "repro.serving",
    "repro.reliability",
    "repro.obs",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_top_level_quickstart_symbols():
    """The symbols the README quickstart uses are importable from repro."""
    from repro import (  # noqa: F401
        ALL_VARIANTS,
        BINARY_MODEL,
        COMBINE_MODEL,
        CONF_MODEL,
        GroupedRecommender,
        MFModel,
        OnlineTrainer,
        RealtimeRecommender,
        ReproConfig,
        SyntheticWorld,
        VirtualClock,
        WorldConfig,
    )


def test_docstrings_on_public_classes():
    """Every public class/function carries a docstring."""
    import repro

    for name in repro.__all__:
        obj = getattr(repro, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__doc__, f"repro.{name} lacks a docstring"


def test_paper_equation_references_present():
    """The core modules document which paper equations they implement."""
    import repro.core.mf
    import repro.core.online
    import repro.core.similarity

    assert "Eq. 2" in repro.core.mf.__doc__
    assert "Algorithm 1" in repro.core.online.__doc__
    assert "Eq. 12" in repro.core.similarity.__doc__ or "Eqs. 9-12" in repro.core.similarity.__doc__
