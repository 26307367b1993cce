"""Equivalence suite for two-stage (factor-scan shortlist -> Eq. 2 re-rank)
retrieval: equality with exhaustive re-ranking, demographic post-filter
semantics, batched seed fetches, and router integration."""

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.config import ReproConfig, RetrievalConfig
from repro.core import (
    DemographicRecommender,
    HotVideoTracker,
    RealtimeRecommender,
)
from repro.data import ActionType, UserAction
from repro.obs import Observability
from repro.serving import RecRequest, RequestRouter
from tests.support.obs import counter_totals
from tests.support.state import CountingState


def _config(mode):
    # The scan's shortlist is the exact top OVERFETCH * n, so stage 2 must
    # reproduce the exhaustive re-rank exactly — any divergence is a
    # retrieval bug.
    return ReproConfig(retrieval=RetrievalConfig(mode=mode))


def _trained(small_world, small_split, mode, **kwargs):
    rec = RealtimeRecommender(
        small_world.videos,
        users=small_world.users,
        config=_config(mode),
        clock=VirtualClock(0.0),
        **kwargs,
    )
    rec.observe_stream(small_split.train)
    rec.clock.set(max(a.timestamp for a in small_split.train) + 1)
    if rec.index is not None:
        rec.rebuild_index()
    return rec


def _warm_users(rec, limit=5):
    users = [
        u for u in sorted(rec.users) if rec.model.user_vector(u) is not None
    ]
    assert users, "expected trained users"
    return users[:limit]


class TestSaturatedEquivalence:
    def test_ann_matches_exhaustive_rerank(self, small_world, small_split):
        rec = _trained(
            small_world, small_split, "ann", enable_demographic=False
        )
        catalog = rec.model.video_rows()[0]
        for user in _warm_users(rec):
            got = rec.recommend_ids(user, current_video="v5", n=10)
            pool = [vid for vid in catalog if vid != "v5"]
            scores = rec.model.predict_many(user, pool)
            order = sorted(
                range(len(pool)), key=lambda i: (-scores[i], pool[i])
            )
            expected = [pool[i] for i in order[:10]]
            assert got == expected

    def test_ann_mode_with_demographic_merge(self, small_world, small_split):
        """The merged output only draws demographic picks from the
        post-filter-equivalent list (blocked = watched + seeds)."""
        rec = _trained(small_world, small_split, "ann")
        for user in _warm_users(rec):
            got = rec.recommend_ids(user, current_video="v2", n=10)
            assert len(got) == len(set(got))
            assert "v2" not in got


class TestDemographicPostFilterPin:
    def test_recommend_filtered_is_exactly_postfiltered_recommend(
        self, small_world, small_actions
    ):
        demo = DemographicRecommender(
            small_world.users, tracker=HotVideoTracker(clock=VirtualClock(0.0))
        )
        for action in small_actions[:400]:
            demo.record(action)
        now = small_actions[399].timestamp + 1
        for user in list(small_world.users)[:6]:
            full = demo.recommend(user, 10, now=now)
            blocked = frozenset(full[::2])  # block every other pick
            assert demo.recommend_filtered(
                user, 10, blocked=blocked, now=now
            ) == [vid for vid in full if vid not in blocked]

    def test_blocked_videos_consume_budget_without_topup(
        self, small_world, small_actions
    ):
        demo = DemographicRecommender(
            small_world.users, tracker=HotVideoTracker(clock=VirtualClock(0.0))
        )
        for action in small_actions[:400]:
            demo.record(action)
        now = small_actions[399].timestamp + 1
        user = next(iter(small_world.users))
        full = demo.recommend(user, 5, now=now)
        if not full:
            pytest.skip("group has no hot videos")
        filtered = demo.recommend_filtered(
            user, 5, blocked=frozenset({full[0]}), now=now
        )
        # One slot burned, never topped up past k-1.
        assert filtered == full[1:]


class TestBatchedSeedFetches:
    def _recommender(self, small_world, small_split, obs):
        rec = RealtimeRecommender(
            small_world.videos,
            users=small_world.users,
            clock=VirtualClock(0.0),
            state=CountingState(),
            obs=obs,
            enable_demographic=False,
        )
        rec.observe_stream(small_split.train[:200])
        return rec

    def test_duplicate_seeds_are_one_read(
        self, small_world, small_split, monkeypatch
    ):
        """Every list is one value: a batch of seeds is one read of it,
        and a duplicate seed is ranked once and fanned back out."""
        obs = Observability.create()
        rec = self._recommender(small_world, small_split, obs)
        ranked = []
        rank = rec.table._rank

        def counting_rank(entries, k, now):
            ranked.append(entries)
            return rank(entries, k, now)

        monkeypatch.setattr(rec.table, "_rank", counting_rank)
        rec.state.reset()
        lists = rec.table.neighbors_many(["v1", "v1", "v2"], now=1.0)
        assert rec.state.ops == {"lists": 1}
        assert len(ranked) == 2  # deduplicated before ranking
        assert lists[0] == lists[1]
        assert lists[0] == rec.table.neighbors("v1", now=1.0)

    def test_selector_dedups_before_seed_cap(
        self, small_world, small_split, monkeypatch
    ):
        obs = Observability.create()
        rec = self._recommender(small_world, small_split, obs)
        cap = rec.config.recommend.max_seeds
        # More duplicate seeds than the cap: dedup must happen *before*
        # the cap so distinct seeds are not crowded out, and the table
        # fetch stays a single read.
        seeds = ["v1"] * cap + ["v2"]
        fetched = []
        neighbors_many = rec.table.neighbors_many

        def recording_neighbors_many(ids, **kwargs):
            fetched.append(list(ids))
            return neighbors_many(ids, **kwargs)

        monkeypatch.setattr(rec.table, "neighbors_many", recording_neighbors_many)
        rec.state.reset()
        rec.selector.select(seeds, now=1.0)
        assert fetched == [["v1", "v2"]]
        assert rec.state.ops == {"lists": 1}

    def test_cold_user_ann_fallback_batches_seed_vectors(
        self, small_world, small_split
    ):
        obs = Observability.create()
        rec = RealtimeRecommender(
            small_world.videos,
            users=small_world.users,
            config=_config("ann"),
            clock=VirtualClock(0.0),
            state=CountingState(),
            obs=obs,
            enable_demographic=False,
        )
        rec.observe_stream(small_split.train[:200])
        rec.rebuild_index()

        # The video arena is one value, so all seed vectors cost one read
        # however many seeds there are; the other read is the cold user's
        # (missing) ``x_u`` lookup in the user arena.
        for seeds in (["v1", "v1", "v2"], [f"v{i}" for i in range(1, 9)]):
            rec.state.reset()
            shortlist = rec._ann_shortlist("stranger", seeds, set(), 10)
            assert shortlist
            assert rec.state.ops == {"users": 1, "videos": 1}


class TestRouterIntegration:
    def test_handle_serves_ann_mode(self, small_world, small_split):
        rec = _trained(small_world, small_split, "ann")
        router = RequestRouter(rec, obs=Observability.create())
        users = _warm_users(rec, limit=4)
        requests = [RecRequest(user_id=u, n=5) for u in users] + [
            RecRequest(user_id=users[0], current_video="v7", n=5)
        ]
        responses = [router.handle(request) for request in requests]
        assert len(responses) == len(requests)
        for response in responses:
            assert response.error is None
            assert response.video_ids
            assert len(response.video_ids) <= 5

    def test_ann_metrics_flow_into_registry(self, small_world, small_split):
        obs = Observability.create()
        rec = RealtimeRecommender(
            small_world.videos,
            users=small_world.users,
            config=_config("ann"),
            clock=VirtualClock(0.0),
            obs=obs,
        )
        rec.observe_stream(small_split.train[:300])
        rec.rebuild_index()
        rec.recommend_ids(_warm_users(rec, limit=1)[0], n=5)
        totals = counter_totals(obs.registry)

        def total(family):
            return sum(
                v for k, v in totals.items() if k.split("{")[0] == family
            )

        assert total("ann_queries_total") >= 1
        assert total("ann_rebuilds_total") >= 1
        indexed = obs.registry.get("ann_indexed_videos").value
        assert indexed == len(rec.index) == len(rec.model.video_rows()[0])
