"""Tests for candidate selection (§4.1)."""

import pytest

from repro.clock import VirtualClock
from repro.config import MFConfig, RecommendConfig, SimilarityConfig
from repro.core import CandidateSelector, MFModel, SimilarVideoTable
from repro.data import Video


@pytest.fixture
def table():
    videos = {
        f"v{i}": Video(f"v{i}", "t", duration=100.0) for i in range(10)
    }
    model = MFModel(MFConfig(f=4, init_scale=0.5, seed=2))
    for vid in videos:
        model.ensure_video(vid)
    table = SimilarVideoTable(
        videos,
        model,
        config=SimilarityConfig(table_size=10, xi=1000.0),
        clock=VirtualClock(0.0),
    )
    # Build a dense-ish similarity graph.
    for i in range(10):
        table.offer_pair(
            f"v{i}", [f"v{j}" for j in range(i + 1, 10)], now=0.0
        )
    return table


class TestSelect:
    def test_candidates_come_from_seed_neighbors(self, table):
        selector = CandidateSelector(table, RecommendConfig())
        candidates = selector.select(["v0"], now=0.0)
        neighbor_ids = {vid for vid, _ in table.neighbors("v0", now=0.0)}
        assert {c.video_id for c in candidates} <= neighbor_ids

    def test_seeds_never_candidates(self, table):
        selector = CandidateSelector(table, RecommendConfig())
        candidates = selector.select(["v0", "v1"], now=0.0)
        ids = {c.video_id for c in candidates}
        assert "v0" not in ids
        assert "v1" not in ids

    def test_excluded_videos_filtered(self, table):
        selector = CandidateSelector(table, RecommendConfig())
        candidates = selector.select(["v0"], exclude={"v1", "v2"}, now=0.0)
        ids = {c.video_id for c in candidates}
        assert not ids & {"v1", "v2"}

    def test_dedup_keeps_best_similarity(self, table):
        selector = CandidateSelector(table, RecommendConfig())
        candidates = selector.select(["v0", "v1"], now=0.0)
        ids = [c.video_id for c in candidates]
        assert len(ids) == len(set(ids))
        for c in candidates:
            # the kept similarity is the max over supporting seeds
            sims = []
            for seed in ("v0", "v1"):
                sims += [
                    s
                    for vid, s in table.neighbors(seed, now=0.0)
                    if vid == c.video_id
                ]
            assert c.similarity == pytest.approx(max(sims))

    def test_sorted_by_similarity(self, table):
        selector = CandidateSelector(table, RecommendConfig())
        candidates = selector.select(["v0"], now=0.0)
        sims = [c.similarity for c in candidates]
        assert sims == sorted(sims, reverse=True)

    def test_max_candidates_cap(self, table):
        selector = CandidateSelector(
            table, RecommendConfig(top_n=2, max_candidates=3)
        )
        assert len(selector.select(["v0", "v5"], now=0.0)) <= 3

    def test_max_seeds_cap(self, table):
        """Only the first max_seeds seeds are expanded."""
        selector = CandidateSelector(
            table, RecommendConfig(max_seeds=1, top_n=1, max_candidates=100)
        )
        only_first = selector.select(["v0", "v1"], now=0.0)
        from_first = selector.select(["v0"], now=0.0)
        assert {c.video_id for c in only_first} == {
            c.video_id for c in from_first if c.video_id != "v1"
        }

    def test_no_seeds_no_candidates(self, table):
        selector = CandidateSelector(table, RecommendConfig())
        assert selector.select([], now=0.0) == []

    def test_unknown_seed_yields_nothing(self, table):
        selector = CandidateSelector(table, RecommendConfig())
        assert selector.select(["ghost"], now=0.0) == []
