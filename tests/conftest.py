"""Shared fixtures: a small synthetic world, its action stream, and splits.

The world is deliberately tiny so the whole unit suite stays fast; the
benchmarks use the full-size calibrated world instead.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.data import SyntheticWorld, WorldConfig, split_by_day
from repro.data.synthetic import paper_world_config
from tests.support.obs import deterministic_obs

# Tier-1 and CI draw the same examples on every run and keep no example
# database, so two runs pass or fail identically; a scheduled job explores
# fresh draws with ``HYPOTHESIS_PROFILE=explore``.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


@pytest.fixture(scope="session")
def small_world() -> SyntheticWorld:
    """A 60-user, 80-video, 3-day world (session-scoped: treat as read-only)."""
    return SyntheticWorld(
        WorldConfig(n_users=60, n_videos=80, n_types=5, days=3, seed=42)
    )


@pytest.fixture(scope="session")
def small_actions(small_world):
    """The full sorted action stream of ``small_world``."""
    return small_world.generate_actions()


@pytest.fixture(scope="session")
def small_split(small_actions):
    """Days 0-1 train, day 2 test."""
    return split_by_day(small_actions, train_days=2)


@pytest.fixture(scope="session")
def medium_world() -> SyntheticWorld:
    """A calibrated (paper-config) world at reduced scale."""
    return SyntheticWorld(
        paper_world_config(n_users=120, n_videos=150, days=4, seed=11)
    )


@pytest.fixture(scope="session")
def medium_actions(medium_world):
    return medium_world.generate_actions()


@pytest.fixture(scope="session")
def medium_split(medium_actions):
    return split_by_day(medium_actions, train_days=3)


@pytest.fixture
def virtual_obs():
    """An Observability bundle whose tracer and perf clock share one
    VirtualClock (``virtual_obs.perf_clock``)."""
    return deterministic_obs()
