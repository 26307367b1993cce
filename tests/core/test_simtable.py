"""Tests for similar-video tables (§4.2) and pair generation."""

import pickle
import random
import sys
import threading

import pytest

from repro.clock import VirtualClock
from repro.config import SimilarityConfig
from repro.core import MFModel, SimilarVideoTable, pair_partners
from repro.core.simtable import MAX_PAIRS
from repro.core.state import ModelState
from repro.config import MFConfig
from repro.data import Video
from tests.support.state import CountingState
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
        config=SimilarityConfig(table_size=3, xi=100.0),
        clock=clock,
    )
    return videos, model, clock, table


class TestPairPartners:
    def test_pairs_new_video_with_history(self):
        assert pair_partners("new", ["h1", "h2", "h3"]) == ["h1", "h2", "h3"]

    def test_excludes_self_pair(self):
        assert pair_partners("h2", ["h1", "h2", "h3"]) == ["h1", "h3"]

    def test_respects_limit(self):
        partners = pair_partners("new", [f"h{i}" for i in range(50)], limit=5)
        assert partners == [f"h{i}" for i in range(5)]

    def test_default_limit_is_max_pairs(self):
        partners = pair_partners("new", [f"h{i}" for i in range(50)])
        assert len(partners) == MAX_PAIRS

    def test_empty_history(self):
        assert pair_partners("new", []) == []


class TestOfferPair:
    def test_both_directions_updated(self, setup):
        videos, model, clock, table = setup
        [raw] = table.offer_pair("v0", ["v1"], now=0.0)
        assert raw is not None
        assert "v1" in dict(table.neighbors("v0"))
        assert "v0" in dict(table.neighbors("v1"))

    def test_self_pair_ignored(self, setup):
        _, _, _, table = setup
        assert table.offer_pair("v0", ["v0"]) == [None]
        assert table.neighbors("v0") == []

    def test_unknown_video_ignored(self, setup):
        _, _, _, table = setup
        assert table.offer_pair("v0", ["ghost"]) == [None]
        assert table.offer_pair("ghost", ["v0"]) == [None]
        assert table.neighbors("v0") == []

    def test_video_without_vector_ignored(self, setup):
        videos, model, clock, table = setup
        videos["fresh"] = Video("fresh", "a", 50.0)
        assert table.offer_pair("v0", ["fresh"]) == [None]
        assert table.offer_pair("fresh", ["v0"]) == [None]
        assert table.tracked_videos() == []

    def test_score_pair_does_not_mutate(self, setup):
        _, _, _, table = setup
        raw = table.score_pair("v0", "v1")
        assert raw is not None
        assert table.neighbors("v0") == []

    def test_refresh_updates_timestamp(self, setup):
        videos, model, clock, table = setup
        table.offer_pair("v0", ["v1"], now=0.0)
        stale = table.neighbors("v0", now=150.0)
        table.offer_pair("v0", ["v1"], now=150.0)
        fresh = table.neighbors("v0", now=150.0)
        assert dict(fresh)["v1"] > dict(stale)["v1"]


class TestOfferPairCost:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_one_arena_read_and_one_list_update(self, k):
        """One engagement with ``k`` scoreable partners: one arena read and
        one insert into the value holding every list — the new video's and
        each partner's."""
        state = CountingState(4)
        videos = _videos()
        model = MFModel(MFConfig(f=4, init_scale=0.5, seed=1), state)
        for vid in videos:
            model.ensure_video(vid)
        table = SimilarVideoTable(
            videos,
            model,
            config=SimilarityConfig(table_size=3, xi=100.0),
            clock=VirtualClock(0.0),
        )
        partners = [f"v{i}" for i in range(1, k + 1)]
        state.reset()
        scores = table.offer_pair("v0", partners, now=0.0)
        assert None not in scores
        assert state.ops == {"videos": 1, "lists": 1}
        for other in partners:
            assert "v0" in raw_entries(table, other)
        assert len(raw_entries(table, "v0")) == min(k, 3)

    def test_insert_scored_is_one_list_update(self):
        state = CountingState(4)
        table = SimilarVideoTable(_videos(), MFModel(MFConfig(f=4, seed=1), state))
        state.reset()
        table.insert_scored("v0", "v1", 0.5, 0.0)
        assert state.ops == {"lists": 1}


class TestTopKEviction:
    def test_table_bounded(self, setup):
        _, _, _, table = setup
        table.offer_pair("v0", ["v1", "v2", "v3", "v4", "v5"], now=0.0)
        assert len(raw_entries(table, "v0")) == 3

    def test_weakest_evicted(self, setup):
        videos, model, clock, table = setup
        table.offer_pair("v0", ["v1", "v2", "v3", "v4", "v5"], now=0.0)
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
        table.offer_pair("v0", ["v1", "v2", "v3"], now=0.0)
        sims = [s for _, s in table.neighbors("v0")]
        assert sims == sorted(sims, reverse=True)

    def test_damping_applied_at_read_time(self, setup):
        videos, model, clock, table = setup
        table.offer_pair("v0", ["v1"], now=0.0)
        now0 = dict(table.neighbors("v0", now=0.0)).get("v1")
        later = dict(table.neighbors("v0", now=100.0)).get("v1")
        if now0 is not None and now0 > 0:
            assert later == pytest.approx(now0 * 0.5)

    def test_k_limits_results(self, setup):
        _, _, _, table = setup
        table.offer_pair("v0", ["v1", "v2", "v3"], now=0.0)
        assert len(table.neighbors("v0", k=1)) == 1

    def test_unknown_video_empty(self, setup):
        _, _, _, table = setup
        assert table.neighbors("never-seen") == []

    def test_clock_used_when_now_omitted(self, setup):
        videos, model, clock, table = setup
        table.offer_pair("v0", ["v1"], now=0.0)
        at_zero = dict(table.neighbors("v0"))
        clock.advance(100.0)
        at_hundred = dict(table.neighbors("v0"))
        if at_zero.get("v1", 0) > 0:
            assert at_hundred["v1"] < at_zero["v1"]

    def test_tracked_videos(self, setup):
        _, _, _, table = setup
        table.offer_pair("v0", ["v1"], now=0.0)
        assert set(table.tracked_videos()) == {"v0", "v1"}
        assert "v0" in table
        assert "v5" not in table


class TestTieRules:
    """The two tie rules of the class docstring, pinned."""

    def _table(self, table_size):
        return SimilarVideoTable(
            _videos(),
            MFModel(MFConfig(f=4, seed=1)),
            config=SimilarityConfig(table_size=table_size, xi=100.0),
            clock=VirtualClock(0.0),
        )

    def test_equal_eviction_keys_evict_the_smaller_id(self):
        table = self._table(table_size=2)
        for other in ("v3", "v2"):
            table.insert_scored("v0", other, 1.0, 0.0)
        # (2.0, t=0) and (1.0, t=xi) damp to the same value at any time:
        # an equal eviction key, so the smallest id of the three goes.
        table.insert_scored("v0", "v1", 2.0, -100.0)
        assert sorted(raw_entries(table, "v0")) == ["v2", "v3"]
        table.insert_scored("v0", "v4", 5.0, 0.0)
        assert sorted(raw_entries(table, "v0")) == ["v3", "v4"]

    def test_an_equal_newcomer_with_the_smallest_id_is_evicted(self):
        table = self._table(table_size=2)
        for other in ("v3", "v2", "v1"):
            table.insert_scored("v0", other, 1.0, 0.0)
        assert sorted(raw_entries(table, "v0")) == ["v2", "v3"]

    def test_equal_damped_similarities_read_in_id_order(self):
        table = self._table(table_size=4)
        for other in ("v5", "v2", "v4"):
            table.insert_scored("v0", other, 1.0, 0.0)
        table.insert_scored("v0", "v1", 2.0, -100.0)
        ranked = table.neighbors("v0", now=50.0)
        assert [other for other, _ in ranked] == ["v1", "v2", "v4", "v5"]
        assert len({sim for _, sim in ranked}) == 1
        [via_many] = table.neighbors_many(["v0"], now=50.0)
        assert via_many == ranked


class TestConcurrentReads:
    def test_reads_during_writes_never_raise_overflow_or_self_pair(self):
        """All lists are one value, so readers copy rows while
        writers update others (or the same) in it: a read must never
        raise, and never see a row with more than K entries or a
        self-entry.  One thread runs ``offer_pair``, one ``insert_scored``
        and the test thread reads — more threads than this host's cores,
        under a shortened switch interval."""
        videos = _videos(n=12)
        model = MFModel(MFConfig(f=4, init_scale=0.5, seed=1))
        for vid in videos:
            model.ensure_video(vid)
        table = SimilarVideoTable(
            videos,
            model,
            config=SimilarityConfig(table_size=3, xi=100.0),
            clock=VirtualClock(0.0),
        )
        ids = sorted(videos)
        errors = []

        def offer(rng):
            video = rng.choice(ids)
            table.offer_pair(video, rng.sample(ids, 4), now=rng.uniform(0, 2e3))

        def insert(rng):
            video, other = rng.sample(ids, 2)
            table.insert_scored(
                video, other, rng.uniform(-1.0, 1.0), rng.uniform(0, 2e3)
            )

        def write(step, seed):
            rng = random.Random(seed)
            try:
                for _ in range(2000):
                    step(rng)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writers = [
            threading.Thread(target=write, args=(offer, 5)),
            threading.Thread(target=write, args=(insert, 6)),
        ]
        try:
            for writer in writers:
                writer.start()
            reads = 0
            while reads == 0 or any(w.is_alive() for w in writers):
                served = table.neighbors_many(ids, k=100, now=2000.0)
                for video, ranked in zip(ids, served):
                    assert len(ranked) <= 3, (video, ranked)
                    assert video not in dict(ranked), (video, ranked)
                    stored = raw_entries(table, video)
                    assert len(stored) <= 3 and video not in stored
                reads += 1
        finally:
            for writer in writers:
                writer.join(timeout=60.0)
            sys.setswitchinterval(interval)
        assert not any(writer.is_alive() for writer in writers)
        assert errors == []
        assert reads > 1


class TestCheckpointedLists:
    def _writes(self, table, rng, n):
        ids = sorted(table.videos)
        for step in range(n):
            video, other = rng.sample(ids, 2)
            table.insert_scored(
                video, other, rng.uniform(-1.0, 1.0), float(rng.randrange(50))
            )

    def test_restored_lists_keep_evicting_as_the_live_ones(self):
        """The lists pickle as ``{video: {other: (raw, t)}}`` only; a
        restored copy re-keys each row on its first write and from then
        on evicts exactly as the live value does."""
        rng = random.Random(11)
        videos = _videos(n=10)
        config = SimilarityConfig(table_size=3, xi=100.0)
        live_state = ModelState(4)
        live = SimilarVideoTable(
            videos, MFModel(MFConfig(f=4, seed=1), live_state), config=config
        )
        self._writes(live, rng, 300)

        pickled = live_state.lists.__getstate__()
        assert all(
            len(value) == 2 for row in pickled.values() for value in row.values()
        )
        restored_state = ModelState(4)
        restored = SimilarVideoTable(
            videos, MFModel(MFConfig(f=4, seed=1), restored_state), config=config
        )
        restored_state.restore(pickle.loads(pickle.dumps(live_state)))
        for video in sorted(videos):
            assert raw_entries(restored, video) == raw_entries(live, video)

        seed = rng.random()
        self._writes(live, random.Random(seed), 300)
        self._writes(restored, random.Random(seed), 300)
        for video in sorted(videos):
            assert repr(sorted(raw_entries(restored, video).items())) == repr(
                sorted(raw_entries(live, video).items())
            )
