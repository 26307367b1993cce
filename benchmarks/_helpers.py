"""Utilities shared by the paper-reproduction benchmarks."""

from __future__ import annotations

from pathlib import Path

from _emit import bench_smoke

from repro.clock import VirtualClock
from repro.config import ReproConfig
from repro.core import RealtimeRecommender
from repro.core.variants import grid_searched_rates
from repro.data import SyntheticWorld
from repro.data.synthetic import paper_world_config

RESULTS_DIR = Path(__file__).parent / "results"
#: Where a smoke run's tables go: the tracked tables are full-size figures,
#: and this directory is gitignored, so a smoke run leaves the tree clean.
SMOKE_RESULTS_DIR = RESULTS_DIR / "smoke"

#: The world every offline benchmark runs on.
PAPER_SEED = 2016
EXTRA_SEEDS = (7, 99)


def smoke_scaled(full: int, smoke: int) -> int:
    """``smoke`` when REPRO_BENCH_SMOKE is set, else ``full``.

    The CI smoke jobs run the harnessed benchmarks at reduced scale just
    to prove the path works and the emitted JSON validates; full runs use
    the paper-scale numbers.
    """
    return smoke if bench_smoke() else full


def variant_config(variant, f: int = 16, init_scale: float = 0.03) -> ReproConfig:
    """The grid-searched configuration for one §6.1.2 variant."""
    eta0, alpha = grid_searched_rates(variant)
    return ReproConfig().with_overrides(
        online={"eta0": eta0, "alpha": alpha},
        mf={"f": f, "init_scale": init_scale},
        weights={"click": 0.5},
    )


def build_world(seed: int = PAPER_SEED, **overrides) -> SyntheticWorld:
    if bench_smoke():
        overrides.setdefault("n_users", 80)
        overrides.setdefault("n_videos", 100)
    return SyntheticWorld(paper_world_config(seed=seed, **overrides))


def train_variant(world, train_actions, variant, enable_demographic=False):
    """Train one fresh RealtimeRecommender on a stream (single pass)."""
    recommender = RealtimeRecommender(
        world.videos,
        users=world.users,
        config=variant_config(variant),
        variant=variant,
        clock=VirtualClock(0.0),
        enable_demographic=enable_demographic,
    )
    recommender.observe_stream(train_actions)
    return recommender


def report(name: str, text: str) -> None:
    """Print a benchmark's table and persist it under benchmarks/results/
    (benchmarks/results/smoke/ when REPRO_BENCH_SMOKE is set)."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    directory = SMOKE_RESULTS_DIR if bench_smoke() else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def format_rows(rows: list[dict], columns: list[str] | None = None) -> str:
    """Render a list of dicts as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0])
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows))
        for c in columns
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines)
