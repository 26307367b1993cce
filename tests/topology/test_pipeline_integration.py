"""Integration tests: the full Figure 2 topology on both executors."""

import threading

import pytest

from repro.clock import VirtualClock
from repro.config import ReproConfig
from repro.storm import LocalExecutor, StreamTuple, ThreadedExecutor
from repro.topology import (
    COMPUTE_MF,
    MF_STORAGE,
    RESULT_STORAGE,
    build_recommendation_topology,
)
from tests.support.world import history_users


@pytest.fixture(scope="module")
def train(small_split):
    return small_split.train


def _build(world, actions, clock=None, parallelism=None):
    return build_recommendation_topology(
        actions,
        world.videos,
        users=world.users,
        clock=clock or VirtualClock(0.0),
        parallelism=parallelism,
    )


class TestLocalRun:
    def test_processes_whole_stream(self, small_world, train):
        topo, system = _build(small_world, train)
        metrics = LocalExecutor(topo).run()
        snap = metrics.snapshot()
        assert snap["spout"]["emitted"] == len(train)
        assert snap["user_history"]["processed"] == len(train)
        assert snap[COMPUTE_MF]["processed"] == len(train)
        assert snap[MF_STORAGE]["failed"] == 0

    def test_state_populated(self, small_world, train):
        topo, system = _build(small_world, train)
        LocalExecutor(topo).run()
        assert system.model.n_users > 0
        assert system.model.n_videos > 0
        assert history_users(system.history)
        assert system.table.tracked_videos()

    def test_mf_storage_writes_match_compute_emissions(self, small_world, train):
        topo, system = _build(small_world, train)
        metrics = LocalExecutor(topo).run()
        snap = metrics.snapshot()
        assert snap[MF_STORAGE]["processed"] == snap[COMPUTE_MF]["emitted"]

    def test_result_storage_two_writes_per_scored_pair(self, small_world, train):
        topo, system = _build(small_world, train)
        metrics = LocalExecutor(topo).run()
        snap = metrics.snapshot()
        assert snap[RESULT_STORAGE]["processed"] == snap["item_pair_sim"]["emitted"]
        assert snap[RESULT_STORAGE]["processed"] % 2 == 0

    def test_serving_recommender_sees_topology_state(self, small_world, train):
        clock = VirtualClock(0.0)
        topo, system = _build(small_world, train, clock=clock)
        LocalExecutor(topo).run()
        clock.set(max(a.timestamp for a in train) + 1)
        recommender = system.serving_recommender()
        active_user = history_users(system.history)[0]
        recs = recommender.recommend_ids(active_user, n=5)
        assert isinstance(recs, list)
        # the serving view shares the exact model state
        assert recommender.model.n_users == system.model.n_users


class TestThreadedRun:
    def test_threaded_processes_everything(self, small_world, train):
        topo, system = _build(
            small_world,
            train,
            parallelism={"spout": 2, COMPUTE_MF: 3, MF_STORAGE: 3},
        )
        metrics = ThreadedExecutor(topo).run(timeout=120.0)
        snap = metrics.snapshot()
        assert snap["spout"]["emitted"] == len(train)
        assert snap[COMPUTE_MF]["processed"] == len(train)
        assert all(stats["failed"] == 0 for stats in snap.values())
        # fields grouping spreads the users over every ComputeMF worker
        grouping = topo.components[COMPUTE_MF].subscriptions[0].grouping
        workers = {
            worker
            for action in train
            for worker in grouping.select(StreamTuple({"user": action.user_id}), 3)
        }
        assert workers == {0, 1, 2}
        assert system.model.n_users > 0

    def test_threaded_and_local_learn_the_same_entities(self, small_world, train):
        topo_l, system_l = _build(small_world, train)
        LocalExecutor(topo_l).run()
        topo_t, system_t = _build(small_world, train)
        ThreadedExecutor(topo_t).run(timeout=120.0)
        assert system_l.model.n_users == system_t.model.n_users
        assert system_l.model.n_videos == system_t.model.n_videos
        assert len(history_users(system_l.history)) == len(
            history_users(system_t.history)
        )


class TestSingleWriterInvariant:
    def test_no_concurrent_writes_to_same_key(self, small_world, train):
        """The paper's §5.1 claim: fields grouping from ComputeMF to
        MFStorage guarantees one worker per vector key, so writes are
        conflict-free.  We detect overlap with a per-key critical section
        that records any concurrent entry."""
        from repro.core.mf import MFModel

        violations = []
        in_flight: dict = {}
        guard = threading.Lock()

        class DetectingModel(MFModel):
            def put_user(self, user_id, x_u, b_u):
                self._checked_write(("user", user_id), super().put_user, user_id, x_u, b_u)

            def put_video(self, video_id, y_i, b_i):
                self._checked_write(("video", video_id), super().put_video, video_id, y_i, b_i)

            def _checked_write(self, key, fn, *args):
                with guard:
                    if in_flight.get(key):
                        violations.append(key)
                    in_flight[key] = True
                try:
                    fn(*args)
                finally:
                    with guard:
                        in_flight[key] = False

        topo, system = _build(
            small_world,
            train,
            parallelism={COMPUTE_MF: 4, MF_STORAGE: 4},
        )
        detecting = DetectingModel.__new__(DetectingModel)
        detecting.__dict__.update(system.model.__dict__)
        # Rebuild topology with the detecting model wired into MFStorage.
        from repro.storm import TopologyBuilder
        from repro.topology import ActionSpout, MFStorageBolt, SharedSource
        from repro.topology.bolts import ComputeMFBolt

        builder = TopologyBuilder()
        shared = SharedSource(train)
        builder.set_spout("spout", lambda: ActionSpout(shared))
        builder.set_bolt(
            "compute_mf",
            lambda: ComputeMFBolt(system.trainer),
            parallelism=4,
        ).fields_grouping("spout", ["user"])
        storage = builder.set_bolt(
            "mf_storage", lambda: MFStorageBolt(detecting), parallelism=4
        )
        storage.fields_grouping("compute_mf", ["kind", "key"], stream="user_vec")
        storage.fields_grouping("compute_mf", ["kind", "key"], stream="video_vec")
        ThreadedExecutor(builder.build()).run(timeout=120.0)
        assert violations == []
