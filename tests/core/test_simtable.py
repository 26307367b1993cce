"""Tests for similar-video tables (§4.2) and pair generation."""

import pytest

from repro.clock import VirtualClock
from repro.config import SimilarityConfig
from repro.core import MFModel, SimilarVideoTable, generate_pairs
from repro.config import MFConfig
from repro.data import Video
from tests.support.world import raw_entries


def _videos(n=6, kinds=("a", "b")):
    return {
        f"v{i}": Video(f"v{i}", kinds[i % len(kinds)], duration=100.0)
        for i in range(n)
    }


@pytest.fixture
def setup():
    videos = _videos()
    model = MFModel(MFConfig(f=4, init_scale=0.5, seed=1))
    for vid in videos:
        model.ensure_video(vid)
    clock = VirtualClock(0.0)
    table = SimilarVideoTable(
        videos,
        model,
        config=SimilarityConfig(table_size=3, xi=100.0, candidate_pool=3),
        clock=clock,
    )
    return videos, model, clock, table


class TestGeneratePairs:
    def test_pairs_new_video_with_history(self):
        pairs = generate_pairs("new", ["h1", "h2", "h3"])
        assert pairs == [("new", "h1"), ("new", "h2"), ("new", "h3")]

    def test_excludes_self_pair(self):
        pairs = generate_pairs("h2", ["h1", "h2", "h3"])
        assert ("h2", "h2") not in pairs
        assert len(pairs) == 2

    def test_respects_limit(self):
        pairs = generate_pairs("new", [f"h{i}" for i in range(50)], limit=5)
        assert len(pairs) == 5

    def test_empty_history(self):
        assert generate_pairs("new", []) == []


class TestOfferPair:
    def test_both_directions_updated(self, setup):
        videos, model, clock, table = setup
        raw = table.offer_pair("v0", "v1", now=0.0)
        assert raw is not None
        assert "v1" in dict(table.neighbors("v0"))
        assert "v0" in dict(table.neighbors("v1"))

    def test_self_pair_ignored(self, setup):
        _, _, _, table = setup
        assert table.offer_pair("v0", "v0") is None

    def test_unknown_video_ignored(self, setup):
        _, _, _, table = setup
        assert table.offer_pair("v0", "ghost") is None
        assert table.neighbors("v0") == []

    def test_video_without_vector_ignored(self, setup):
        videos, model, clock, table = setup
        videos["fresh"] = Video("fresh", "a", 50.0)
        assert table.offer_pair("v0", "fresh") is None

    def test_score_pair_does_not_mutate(self, setup):
        _, _, _, table = setup
        raw = table.score_pair("v0", "v1")
        assert raw is not None
        assert table.neighbors("v0") == []

    def test_refresh_updates_timestamp(self, setup):
        videos, model, clock, table = setup
        table.offer_pair("v0", "v1", now=0.0)
        stale = table.neighbors("v0", now=150.0)
        table.offer_pair("v0", "v1", now=150.0)
        fresh = table.neighbors("v0", now=150.0)
        assert dict(fresh)["v1"] > dict(stale)["v1"]


class TestTopKEviction:
    def test_table_bounded(self, setup):
        _, _, _, table = setup
        for other in ("v1", "v2", "v3", "v4", "v5"):
            table.offer_pair("v0", other, now=0.0)
        assert len(raw_entries(table, "v0")) == 3

    def test_weakest_evicted(self, setup):
        videos, model, clock, table = setup
        for other in ("v1", "v2", "v3", "v4", "v5"):
            table.offer_pair("v0", other, now=0.0)
        kept = raw_entries(table, "v0")
        all_raw = {
            other: table.score_pair("v0", other)
            for other in ("v1", "v2", "v3", "v4", "v5")
        }
        kept_scores = sorted(all_raw[o] for o in kept)
        dropped_scores = sorted(
            all_raw[o] for o in all_raw if o not in kept
        )
        assert min(kept_scores) >= max(dropped_scores)


class TestNeighbors:
    def test_sorted_descending(self, setup):
        _, _, _, table = setup
        for other in ("v1", "v2", "v3"):
            table.offer_pair("v0", other, now=0.0)
        sims = [s for _, s in table.neighbors("v0")]
        assert sims == sorted(sims, reverse=True)

    def test_damping_applied_at_read_time(self, setup):
        videos, model, clock, table = setup
        table.offer_pair("v0", "v1", now=0.0)
        now0 = dict(table.neighbors("v0", now=0.0)).get("v1")
        later = dict(table.neighbors("v0", now=100.0)).get("v1")
        if now0 is not None and now0 > 0:
            assert later == pytest.approx(now0 * 0.5)

    def test_k_limits_results(self, setup):
        _, _, _, table = setup
        for other in ("v1", "v2", "v3"):
            table.offer_pair("v0", other, now=0.0)
        assert len(table.neighbors("v0", k=1)) == 1

    def test_unknown_video_empty(self, setup):
        _, _, _, table = setup
        assert table.neighbors("never-seen") == []

    def test_clock_used_when_now_omitted(self, setup):
        videos, model, clock, table = setup
        table.offer_pair("v0", "v1", now=0.0)
        at_zero = dict(table.neighbors("v0"))
        clock.advance(100.0)
        at_hundred = dict(table.neighbors("v0"))
        if at_zero.get("v1", 0) > 0:
            assert at_hundred["v1"] < at_zero["v1"]

    def test_tracked_videos(self, setup):
        _, _, _, table = setup
        table.offer_pair("v0", "v1", now=0.0)
        assert set(table.tracked_videos()) == {"v0", "v1"}
        assert "v0" in table
        assert "v5" not in table
