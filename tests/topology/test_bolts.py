"""Unit tests for the Figure 2 bolts."""

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.config import MFConfig, OnlineConfig, SimilarityConfig
from repro.core import (
    MFModel,
    OnlineTrainer,
    SimilarVideoTable,
    UserHistoryStore,
)
from repro.core.variants import BINARY_MODEL, COMBINE_MODEL
from repro.data import ActionType, UserAction, Video
from repro.storm import Collector
from repro.topology import (
    PAIR_STREAM,
    SIM_STREAM,
    USER_VEC_STREAM,
    VIDEO_VEC_STREAM,
    ComputeMFBolt,
    GetItemPairsBolt,
    ItemPairSimBolt,
    MFStorageBolt,
    ResultStorageBolt,
    UserHistoryBolt,
)
from repro.topology import action_tuple
from tests.support.world import raw_entries

VIDEOS = {f"v{i}": Video(f"v{i}", "t", duration=1000.0) for i in range(5)}


def _click(user="u1", video="v1", ts=0.0):
    return action_tuple(UserAction(ts, user, video, ActionType.CLICK))


def _impress(user="u1", video="v1", ts=0.0):
    return action_tuple(UserAction(ts, user, video, ActionType.IMPRESS))


class TestComputeMFBolt:
    def _bolt(self, model=None):
        return ComputeMFBolt(
            OnlineTrainer(
                model or MFModel(MFConfig(f=4, seed=1)),
                VIDEOS,
                variant=COMBINE_MODEL,
                config=OnlineConfig(eta0=0.01, alpha=0.01),
            )
        )

    def test_positive_action_emits_two_vector_tuples(self):
        bolt = self._bolt()
        collector = Collector()
        bolt.process(_click(), collector)
        streams = [t.stream for t in collector.emitted]
        assert streams == [USER_VEC_STREAM, VIDEO_VEC_STREAM]
        user_tup = collector.emitted[0]
        assert user_tup["kind"] == "user"
        assert user_tup["key"] == "u1"
        assert user_tup["vector"].shape == (4,)

    def test_impression_emits_nothing(self):
        bolt = self._bolt()
        collector = Collector()
        bolt.process(_impress(), collector)
        assert collector.emitted == []

    def test_compute_does_not_write_vectors(self):
        """Only MFStorage may write — §5.1's single-writer design."""
        model = MFModel(MFConfig(f=4, seed=1))
        bolt = self._bolt(model)
        bolt.process(_click(), Collector())
        assert model.user_vector("u1") is None
        assert model.video_vector("v1") is None

    def test_unqualified_playtime_skipped(self):
        bolt = self._bolt()
        collector = Collector()
        tup = action_tuple(
            UserAction(0.0, "u", "ghost", ActionType.PLAYTIME, view_time=9)
        )
        bolt.process(tup, collector)
        assert collector.emitted == []

    def test_adjustable_rate_reflected_in_vectors(self):
        """Stronger actions move vectors further (Eq. 8)."""
        shifts = {}
        for kind in (ActionType.CLICK, ActionType.LIKE):
            model = MFModel(MFConfig(f=4, seed=1))
            bolt = ComputeMFBolt(
                OnlineTrainer(
                    model, VIDEOS, variant=COMBINE_MODEL,
                    config=OnlineConfig(eta0=0.01, alpha=0.05),
                )
            )
            collector = Collector()
            bolt.process(
                action_tuple(UserAction(0.0, "u1", "v1", kind)), collector
            )
            x_init = model.compute_update(
                "u1", "v1", 1.0, 0.01, persist_init=False
            )
            emitted = collector.emitted[0]["vector"]
            base = MFModel(MFConfig(f=4, seed=1))._init_vector("user", "u1")
            shifts[kind] = float(np.linalg.norm(emitted - base))
        assert shifts[ActionType.LIKE] > shifts[ActionType.CLICK]


class TestMFStorageBolt:
    def test_writes_user_and_video_params(self):
        model = MFModel(MFConfig(f=4, seed=1))
        bolt = MFStorageBolt(model)
        from repro.storm import StreamTuple

        bolt.process(
            StreamTuple(
                {"kind": "user", "key": "u1", "vector": np.ones(4), "bias": 0.5},
                stream=USER_VEC_STREAM,
            ),
            Collector(),
        )
        bolt.process(
            StreamTuple(
                {"kind": "video", "key": "v1", "vector": 2 * np.ones(4), "bias": -0.1},
                stream=VIDEO_VEC_STREAM,
            ),
            Collector(),
        )
        assert np.array_equal(model.user_vector("u1"), np.ones(4))
        assert model.user_bias("u1") == 0.5
        assert model.video_bias("v1") == -0.1
        assert bolt.writes == 2


class TestUserHistoryBolt:
    def test_records_engagements(self):
        history = UserHistoryStore()
        bolt = UserHistoryBolt(history)
        bolt.process(_click("u1", "v1", 1.0), Collector())
        bolt.process(_impress("u1", "v2", 2.0), Collector())
        assert history.recent("u1") == ["v1"]


class TestGetItemPairsBolt:
    def test_pairs_action_video_with_history(self):
        history = UserHistoryStore()
        history.add("u1", "old1", 1.0)
        history.add("u1", "old2", 2.0)
        bolt = GetItemPairsBolt(history)
        collector = Collector()
        bolt.process(_click("u1", "new", 3.0), collector)
        pairs = {
            (t["video_i"], t["video_j"]) for t in collector.emitted
        }
        assert pairs == {("new", "old2"), ("new", "old1")}
        assert all(t.stream == PAIR_STREAM for t in collector.emitted)

    def test_pair_key_is_order_independent(self):
        history = UserHistoryStore()
        history.add("u1", "b", 1.0)
        bolt = GetItemPairsBolt(history)
        collector = Collector()
        bolt.process(_click("u1", "a", 2.0), collector)
        assert collector.emitted[0]["pair"] == "a#b"

    def test_impressions_generate_no_pairs(self):
        bolt = GetItemPairsBolt(UserHistoryStore())
        collector = Collector()
        bolt.process(_impress(), collector)
        assert collector.emitted == []

    def test_max_pairs_cap(self):
        history = UserHistoryStore()
        for i in range(50):
            history.add("u1", f"h{i}", float(i))
        bolt = GetItemPairsBolt(history, max_pairs=5)
        collector = Collector()
        bolt.process(_click("u1", "new", 99.0), collector)
        assert len(collector.emitted) == 5


class TestItemPairSimAndResultStorage:
    def _table(self):
        model = MFModel(MFConfig(f=4, init_scale=0.5, seed=2))
        for vid in VIDEOS:
            model.ensure_video(vid)
        return SimilarVideoTable(
            VIDEOS,
            model,
            config=SimilarityConfig(table_size=5, xi=100.0),
            clock=VirtualClock(0.0),
        )

    def test_sim_bolt_emits_both_directions(self):
        table = self._table()
        bolt = ItemPairSimBolt(table)
        from repro.storm import StreamTuple

        collector = Collector()
        bolt.process(
            StreamTuple(
                {"pair": "v0#v1", "video_i": "v0", "video_j": "v1", "ts": 0.0},
                stream=PAIR_STREAM,
            ),
            collector,
        )
        assert len(collector.emitted) == 2
        directed = {(t["video"], t["other"]) for t in collector.emitted}
        assert directed == {("v0", "v1"), ("v1", "v0")}
        assert all(t.stream == SIM_STREAM for t in collector.emitted)
        # scoring must not touch the table itself
        assert raw_entries(table, "v0") == {}

    def test_unknown_video_pair_dropped(self):
        bolt = ItemPairSimBolt(self._table())
        from repro.storm import StreamTuple

        collector = Collector()
        bolt.process(
            StreamTuple(
                {"pair": "v0#zz", "video_i": "v0", "video_j": "zz", "ts": 0.0},
                stream=PAIR_STREAM,
            ),
            collector,
        )
        assert collector.emitted == []

    def test_result_storage_inserts_directed_entry(self):
        table = self._table()
        bolt = ResultStorageBolt(table)
        from repro.storm import StreamTuple

        bolt.process(
            StreamTuple(
                {"video": "v0", "other": "v1", "sim": 0.7, "ts": 0.0},
                stream=SIM_STREAM,
            ),
            Collector(),
        )
        assert raw_entries(table, "v0") == {"v1": (0.7, 0.0)}
        assert raw_entries(table, "v1") == {}  # directed: other side separate
        assert bolt.writes == 1
