"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's §6 on the
calibrated synthetic world (see DESIGN.md for the substitution argument).
Results are printed and also written to ``benchmarks/results/`` so
EXPERIMENTS.md can cite them; a smoke run (``REPRO_BENCH_SMOKE=1``) writes
its tables to the gitignored ``benchmarks/results/smoke/`` instead.

The expensive artefacts (the world, its action stream, the chronological
split, trained models) are session-scoped and shared across benchmarks.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _helpers import build_world, train_variant  # noqa: E402

from repro.core.variants import ALL_VARIANTS  # noqa: E402
from repro.data import split_by_day  # noqa: E402


@pytest.fixture(scope="session")
def paper_world():
    return build_world()


@pytest.fixture(scope="session")
def paper_actions(paper_world):
    return paper_world.generate_actions()


@pytest.fixture(scope="session")
def paper_split(paper_actions):
    return split_by_day(paper_actions, train_days=6)


@pytest.fixture(scope="session")
def genuine_liked(paper_world, paper_split):
    return paper_world.genuinely_liked(paper_split.test)


@pytest.fixture(scope="session")
def trained_variants(paper_world, paper_split):
    """One trained recommender per §6.1.2 variant (shared by Fig 4/5)."""
    return {
        variant.name: train_variant(paper_world, paper_split.train, variant)
        for variant in ALL_VARIANTS
    }

