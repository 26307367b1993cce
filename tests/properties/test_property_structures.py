"""Property-based tests for the stateful structures: similar-video tables,
hot trackers, history stores, recommendation merging and the factor arena."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.config import MFConfig, SimilarityConfig
from repro.core import (
    FactorArena,
    HotVideoTracker,
    MFModel,
    SimilarVideoTable,
    UserHistoryStore,
    merge_recommendations,
)
from repro.core.simtable import SimilarLists, _eviction_key
from repro.data import Video
from tests.support.world import raw_entries

video_ids = st.sampled_from([f"v{i}" for i in range(12)])
user_ids = st.sampled_from([f"u{i}" for i in range(5)])


def _table(table_size=4):
    videos = {
        f"v{i}": Video(f"v{i}", f"t{i % 3}", duration=100.0) for i in range(12)
    }
    model = MFModel(MFConfig(f=4, init_scale=0.5, seed=7))
    for vid in videos:
        model.ensure_video(vid)
    return SimilarVideoTable(
        videos,
        model,
        config=SimilarityConfig(table_size=table_size, xi=500.0),
        clock=VirtualClock(0.0),
    )


class TestSimilarVideoTableProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(video_ids, video_ids, st.floats(0, 1000)), max_size=60
        )
    )
    def test_invariants_hold_under_any_pair_sequence(self, pairs):
        table = _table(table_size=4)
        for video_i, video_j, ts in sorted(pairs, key=lambda p: p[2]):
            table.offer_pair(video_i, [video_j], now=ts)
        for video in table.tracked_videos():
            entries = raw_entries(table, video)
            # bounded
            assert len(entries) <= 4
            # never self-similar
            assert video not in entries
            neighbors = table.neighbors(video, now=1000.0)
            sims = [s for _, s in neighbors]
            # sorted descending, positive only
            assert sims == sorted(sims, reverse=True)
            assert all(s > 0 for s in sims)

    @settings(max_examples=20, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(video_ids, video_ids), min_size=1, max_size=30
        )
    )
    def test_symmetry_of_offer(self, pairs):
        """offer_pair(i, [j]) touches both directed lists (when scoreable)."""
        table = _table(table_size=12)
        for video_i, video_j in pairs:
            [raw] = table.offer_pair(video_i, [video_j], now=0.0)
            if raw is not None:
                assert video_j in raw_entries(table, video_i)
                assert video_i in raw_entries(table, video_j)


def _pair_tables(table_size):
    """Two empty tables over one model: v0-v7 learned, v8/v9 catalogued
    but unlearned (no vector yet)."""
    videos = {
        f"v{i}": Video(f"v{i}", f"t{i % 3}", duration=100.0) for i in range(10)
    }
    model = MFModel(MFConfig(f=4, init_scale=0.5, seed=7))
    for i in range(8):
        model.ensure_video(f"v{i}")
    config = SimilarityConfig(table_size=table_size, xi=500.0)
    return [
        SimilarVideoTable(videos, model, config=config, clock=VirtualClock(0.0))
        for _ in range(2)
    ]


#: Catalogued ids plus one the catalogue does not know.
pair_ids = st.sampled_from([f"v{i}" for i in range(10)] + ["ghost"])


class TestOfferPairEqualsPerPairReplay:
    """``offer_pair(v, partners, now)`` is the per-pair §5 path batched:
    ``score_pair`` then ``insert_scored`` v<-j, j<-v, partner by partner.
    Return values and every stored list (entries, order, raw bits and
    timestamps) must match it exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                pair_ids, st.lists(pair_ids, max_size=7), st.floats(0, 2000)
            ),
            max_size=25,
        ),
        table_size=st.integers(1, 4),
    )
    @example(
        steps=[
            ("v0", ["v1", "v0", "v1", "ghost", "v8", "v2", "v3"], 5.0),
            ("v1", ["v0", "v2", "v9"], 3.0),
            ("ghost", ["v0"], 4.0),
            ("v9", ["v0", "v1"], 6.0),
        ],
        table_size=1,
    )
    def test_offer_pair_equals_per_pair_replay(self, steps, table_size):
        batched, replay = _pair_tables(table_size)
        for video, partners, ts in steps:
            got = batched.offer_pair(video, partners, now=ts)
            want = []
            for other in partners:
                raw = replay.score_pair(video, other)
                want.append(raw)
                if raw is not None:
                    replay.insert_scored(video, other, raw, ts)
                    replay.insert_scored(other, video, raw, ts)
            assert repr(got) == repr(want)
        assert sorted(batched.tracked_videos()) == sorted(
            replay.tracked_videos()
        )
        for video in replay.tracked_videos():
            got_entries = list(raw_entries(batched, video).items())
            want_entries = list(raw_entries(replay, video).items())
            assert repr(got_entries) == repr(want_entries), video


class TestHotTrackerProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        events=st.lists(
            st.tuples(video_ids, st.floats(0.1, 5.0), st.floats(0, 10_000)),
            max_size=50,
        ),
        k=st.integers(1, 10),
    )
    def test_hot_list_sorted_bounded_positive(self, events, k):
        tracker = HotVideoTracker(
            half_life=1000.0, max_tracked=8, clock=VirtualClock(0.0)
        )
        for video, weight, ts in sorted(events, key=lambda e: e[2]):
            tracker.record("g", video, weight, now=ts)
        hot = tracker.hot("g", k, now=20_000.0)
        assert len(hot) <= min(k, 8)
        scores = [s for _, s in hot]
        assert scores == sorted(scores, reverse=True)
        assert all(s >= 0 for s in scores)


class TestHistoryProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        events=st.lists(st.tuples(user_ids, video_ids), max_size=60),
        max_items=st.integers(1, 10),
    )
    def test_history_bounded_deduplicated_ordered(self, events, max_items):
        history = UserHistoryStore(max_items=max_items)
        for ts, (user, video) in enumerate(events):
            history.add(user, video, float(ts))
        for user in {u for u, _ in events}:
            recent = history.recent(user)
            assert len(recent) <= max_items
            assert len(recent) == len(set(recent))
            # most recent engagement first
            last_video = next(
                v for u, v in reversed(events) if u == user
            )
            if last_video in recent:
                assert recent[0] == last_video


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        primary=st.lists(video_ids, max_size=12, unique=True),
        db=st.lists(video_ids, max_size=12, unique=True),
        n=st.integers(1, 12),
        fraction=st.floats(0.0, 1.0),
    )
    def test_merge_invariants(self, primary, db, n, fraction):
        merged = merge_recommendations(primary, db, n, fraction)
        # bounded, unique, sourced only from inputs
        assert len(merged) <= n
        assert len(merged) == len(set(merged))
        assert set(merged) <= set(primary) | set(db)
        # the MF head is preserved in order
        head = [v for v in merged if v in primary[: n - int(n * fraction)]]
        expected_head = [
            v for v in primary[: n - int(n * fraction)] if v in merged
        ]
        assert head == expected_head
        # nothing is wasted: if we returned fewer than n, we ran out of input
        if len(merged) < n:
            assert len(set(primary) | set(db)) == len(merged)


ARENA_F = 3
arena_ids = st.sampled_from([f"e{i}" for i in range(25)])
arena_scalars = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)
arena_operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), arena_ids, arena_scalars, arena_scalars),
        st.tuples(st.just("setdefault"), arena_ids, arena_scalars),
        st.tuples(
            st.just("put_many"),
            st.lists(st.tuples(arena_ids, arena_scalars, arena_scalars)),
        ),
    ),
    max_size=60,
)


class TestFactorArenaProperties:
    """Random operation sequences against the obvious reference model — a
    ``dict`` of id -> (vector, bias) — through however many growth
    generations the sequence forces (``initial_capacity=1``).  A
    ``put_many`` batch may repeat an id; the later record wins."""

    @settings(max_examples=60, deadline=None)
    @given(ops=arena_operations)
    def test_matches_dict_reference(self, ops):
        arena = FactorArena(ARENA_F, initial_capacity=1)
        reference: dict = {}
        for op in ops:
            if op[0] == "put":
                _, eid, value, bias = op
                arena.put(eid, np.full(ARENA_F, value), bias)
                reference[eid] = (np.full(ARENA_F, value), bias)
            elif op[0] == "setdefault":
                _, eid, value = op
                got = arena.setdefault_vector(
                    eid, lambda: np.full(ARENA_F, value)
                )
                if eid not in reference:
                    reference[eid] = (np.full(ARENA_F, value), arena.bias(eid))
                assert np.array_equal(got, reference[eid][0])
            else:
                batch = [
                    (eid, np.full(ARENA_F, value), bias)
                    for eid, value, bias in op[1]
                ]
                arena.put_many(batch)
                reference.update((eid, (vec, bias)) for eid, vec, bias in batch)

        assert len(arena) == len(reference)
        ids, vectors, biases = arena.sorted_rows()
        assert ids == sorted(reference)
        for row, eid in enumerate(ids):
            assert np.array_equal(vectors[row], reference[eid][0])
            assert biases[row] == reference[eid][1]
        for eid, (vector, bias) in reference.items():
            assert np.array_equal(arena.vector(eid), vector)
            assert arena.bias(eid) == bias
        all_ids = sorted(reference) + ["never-written"]
        matrix = arena.vectors_matrix(all_ids)
        biases = arena.biases_array(all_ids)
        for row, eid in enumerate(all_ids):
            if eid in reference:
                assert np.array_equal(matrix[row], reference[eid][0])
                assert biases[row] == reference[eid][1]
            else:
                assert np.array_equal(matrix[row], np.zeros(ARENA_F))


list_writes = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.sampled_from(["v0", "v1"]),
            st.sampled_from([f"o{i}" for i in range(8)]),
            st.sampled_from([0.0, -0.4, 0.3, 0.3, 0.9, 1.7]),
            st.integers(min_value=-3, max_value=40).map(float),
        ),
        st.tuples(st.just("restore")),
    ),
    max_size=80,
)


class TestSimilarListsEviction:
    """``SimilarLists.insert`` against the obvious reference: each row a
    dict, and an overflowing row drops its entry with the smallest
    ``(_eviction_key, other)``.  Writes repeat ids, raise and lower keys,
    tie, and go back in time; a checkpoint round trip may come between
    any two."""

    @settings(max_examples=150, deadline=None)
    @given(ops=list_writes, table_size=st.integers(min_value=1, max_value=4))
    def test_matches_scan_reference(self, ops, table_size):
        xi = 10.0
        lists = SimilarLists()
        reference: dict[str, dict[str, tuple[float, float]]] = {}
        for op in ops:
            if op[0] == "restore":
                restored = SimilarLists()
                restored.__setstate__(lists.__getstate__())
                lists = restored
                continue
            _, video, other, raw, t = op
            lists.insert(
                [(video, other, raw, t, _eviction_key(raw, t, xi))],
                table_size,
                xi,
            )
            row = reference.setdefault(video, {})
            row[other] = (raw, t)
            if len(row) > table_size:
                del row[
                    min(row, key=lambda o: (_eviction_key(*row[o], xi), o))
                ]
        state = lists.__getstate__()
        assert state == reference
        assert [list(row) for row in state.values()] == [
            list(row) for row in reference.values()
        ]
