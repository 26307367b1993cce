"""The model's state is six typed values on one ``ModelState``.

``MFModel``, ``SimilarVideoTable``, ``UserHistoryStore`` and
``HotVideoTracker`` each read and write only their own values of one
shared state, through the state on every access.  So a component built
before a checkpoint is restored under it sees the restored values,
components sharing a state do not collide, and the served system and the
Figure-2 topology touch exactly the six values.  The one lock the state
keeps, ``mu``'s, loses no fold under threads.

The state-level cases also run over the test stand-ins that other tests
put in a ``ModelState``'s place — the counting state and the fault
injector with no faults scheduled — so what those tests conclude holds
for the state they stand in for.
"""

import asyncio
import pickle
import threading

import numpy as np
import pytest

from repro.config import MFConfig
from repro.core import MFModel, ModelState, SimilarVideoTable, UserHistoryStore
from repro.core.demographic import HotVideoTracker
from repro.core.state import VALUES
from repro.data import ActionType, UserAction
from repro.data.schema import Video
from repro.serving import GatewayConfig, RecRequest
from repro.serving.cli import build_demo_gateway
from repro.storm import LocalExecutor, ThreadedExecutor
from repro.topology.pipeline import build_recommendation_topology
from tests.support.faults import FlakyState
from tests.support.state import CountingState, plain

_VIDEOS = {
    vid: Video(vid, kind, 100.0)
    for vid, kind in (("v1", "a"), ("v2", "a"), ("v3", "b"))
}
F = 16
_STATES = {
    "model": ModelState,
    "counting": CountingState,
    "fault_free": FlakyState,
}


@pytest.fixture(params=sorted(_STATES))
def make_state(request):
    return _STATES[request.param]


class _History:
    values = {"histories"}

    def __init__(self, state):
        self.history = UserHistoryStore(state)

    def write(self):
        self.history.add("u1", "v1", 1.0)
        self.history.add("u1", "v2", 2.0)

    def read(self):
        return self.history.recent("u1")


class _Hot:
    values = {"hot"}

    def __init__(self, state):
        self.tracker = HotVideoTracker(state=state)

    def write(self):
        self.tracker.record("u1", "v1", now=1.0)
        self.tracker.record("u1", "v2", weight=3.0, now=1.0)

    def read(self):
        return self.tracker.hot("u1", now=1.0)


class _MF:
    values = {"users", "videos", "mu"}

    def __init__(self, state):
        self.model = MFModel(MFConfig(f=F, seed=3), state)

    def write(self):
        self.model.observe_rating(1.0)
        self.model.sgd_step("u1", "v1", 1.0, eta=0.05)

    def read(self):
        return (
            self.model.mu,
            self.model.user_vector("u1").tolist(),
            self.model.video_vector("v1").tolist(),
        )


class _SimTable:
    values = {"lists"}

    def __init__(self, state):
        self.table = SimilarVideoTable(_VIDEOS, MFModel(MFConfig(f=F), state))

    def write(self):
        self.table.insert_scored("v1", "v2", 0.5, 1.0)
        self.table.insert_scored("v2", "v1", 0.5, 1.0)
        self.table.insert_scored("v1", "v3", 0.25, 1.0)

    def read(self):
        return self.table.neighbors("v1", now=1.0)


_COMPONENTS = {c.__name__: c for c in (_History, _Hot, _MF, _SimTable)}


@pytest.fixture(params=sorted(_COMPONENTS))
def component(request):
    return _COMPONENTS[request.param]


def test_component_touches_only_its_own_values(component):
    state = CountingState(F)
    made = component(state)
    made.write()
    made.read()
    assert set(state.ops) == component.values
    untouched = plain(ModelState(F))
    for name in set(VALUES) - component.values:
        assert plain(state)[name] == untouched[name]


def test_component_state_survives_a_checkpoint_restore(component, make_state):
    """A component built over a state that a pickled snapshot is restored
    into afterwards reads what the first one wrote: recovery builds the
    model first and restores the checkpoint under it."""
    source = make_state()
    written = component(source)
    written.write()

    target = make_state()
    rebuilt = component(target)
    target.restore(pickle.loads(pickle.dumps(source)))
    assert rebuilt.read() == written.read()
    assert plain(target) == plain(source)


def test_components_sharing_one_state_do_not_collide(make_state):
    """All four components over one state, writing the same user and video
    ids, read exactly what each reads over a state of its own."""
    shared = make_state()
    together = {name: make(shared) for name, make in _COMPONENTS.items()}
    for made in together.values():
        made.write()
    for name, make in _COMPONENTS.items():
        alone = make(ModelState(F))
        alone.write()
        assert together[name].read() == alone.read()


def test_restore_rolls_back_later_writes_and_empty_state_empties(make_state):
    state = make_state()
    made = {name: make(state) for name, make in _COMPONENTS.items()}
    for component in made.values():
        component.write()
    snapshot = pickle.dumps(state)
    expected = plain(state)
    made["_History"].history.add("u2", "v3", 5.0)
    made["_MF"].model.sgd_step("u9", "v9", 1.0, eta=0.05)
    assert plain(state) != expected

    state.restore(pickle.loads(snapshot))
    assert plain(state) == expected
    assert made["_History"].history.recent("u2") == []

    state.restore(ModelState(F))
    assert plain(state) == plain(ModelState(F))


def test_a_snapshot_does_not_see_later_writes(make_state):
    state = make_state()
    history = UserHistoryStore(state)
    history.add("u1", "v1", 1.0)
    snapshot = pickle.dumps(state)
    history.add("u1", "v2", 2.0)
    assert pickle.loads(snapshot).histories == {"u1": [("v1", 1.0)]}


def test_pickle_round_trip_keeps_every_value_and_a_fresh_lock(make_state):
    state = make_state()
    for make in _COMPONENTS.values():
        make(state).write()
    clone = pickle.loads(pickle.dumps(state))
    assert type(clone) is ModelState  # a checkpoint holds a plain state
    assert plain(clone) == plain(state)
    assert clone.mu_lock is not state.mu_lock
    assert clone.mu_lock.acquire(blocking=False)


DEMO_WORLD = dict(n_users=10, n_videos=30, seed=7)


def test_the_system_touches_exactly_the_six_values(
    monkeypatch, tmp_path, small_world, small_actions, capsys
):
    """A durable demo boot, served requests and ingests, a restart, and
    the topology under both executors fetch every value and nothing
    else."""
    made: list[CountingState] = []

    def counting_state(*args):
        made.append(CountingState(*args))
        return made[-1]

    monkeypatch.setattr("repro.core.recommender.ModelState", counting_state)
    gateway = build_demo_gateway(
        GatewayConfig(port=0), rate=None, data_dir=tmp_path, **DEMO_WORLD
    )
    recommender = gateway.router.recommender
    videos = sorted(recommender.videos)
    for i, user in enumerate(sorted(recommender.users)):
        assert gateway.router.handle(RecRequest(user, timestamp=2e7)).ok
        gateway.observe(
            UserAction(2e7 + i, user, videos[i % len(videos)], ActionType.CLICK)
        )
    restarted = build_demo_gateway(
        GatewayConfig(port=0), rate=None, data_dir=tmp_path, **DEMO_WORLD
    )
    for served in (gateway, restarted):
        asyncio.run(served.stop())
    assert "checkpoint=ckpt-" in capsys.readouterr().out  # recover restored
    for executor in (LocalExecutor, ThreadedExecutor):
        state = CountingState()
        topology, _ = build_recommendation_topology(
            list(small_actions[:400]), small_world.videos, state=state
        )
        executor(topology).run()
        made.append(state)
    assert len(made) == 4
    boot, restart, local, threaded = made
    assert set(boot.ops) == set(restart.ops) == set(VALUES)
    # No demographic component in the topology.  Under threads a pair may
    # be scored before its vectors are stored, so lists may go unwritten.
    assert set(local.ops) == set(VALUES) - {"hot"}
    assert set(VALUES) - {"hot", "lists"} <= set(threaded.ops)
    assert set(threaded.ops) <= set(VALUES) - {"hot"}


def test_concurrent_mu_folds_lose_nothing():
    """``mu`` is the one value two threads fold (the threaded topology's
    ``ComputeMF`` workers): its lock loses no rating."""
    model = MFModel(state=ModelState())
    barrier = threading.Barrier(8)

    def fold():
        barrier.wait()
        for _ in range(500):
            model.observe_rating(1.0)

    threads = [threading.Thread(target=fold) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert model.state.mu == (4000.0, 4000)


def test_a_history_read_never_changes_under_its_reader():
    """A push replaces the user's list, so a list read on another thread
    is never mutated."""
    state = ModelState()
    history = UserHistoryStore(state, max_items=2)
    history.add("u1", "v1", 1.0)
    read = state.histories["u1"]
    history.add("u1", "v2", 2.0)
    history.add("u1", "v3", 3.0)
    assert read == [("v1", 1.0)]
    assert state.histories["u1"] == [("v3", 3.0), ("v2", 2.0)]


def _hammer(fn, n_threads=4, n_iter=150):
    """Run ``fn(thread_idx, i)`` from ``n_threads`` threads at once."""
    errors = []
    barrier = threading.Barrier(n_threads)

    def run(thread_idx):
        try:
            barrier.wait()
            for i in range(n_iter):
                fn(thread_idx, i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors


def test_arena_writers_and_readers_interleave():
    """The arena's lock separates two writers interning rows (the threaded
    topology's ``MFStorage`` workers) and readers: no row is lost and a
    reader only ever sees rows added."""
    model = MFModel(state=ModelState())
    seen = {2: [], 3: []}

    def step(thread_idx, i):
        if thread_idx < 2:
            model.put_user(f"e{thread_idx}-{i}", np.full(F, float(i)), float(i))
        else:
            seen[thread_idx].append(model.n_users)
            model.state.users.vectors_many([f"e0-{i}", f"e1-{i}"])

    _hammer(step)
    assert model.n_users == 2 * 150
    for counts in seen.values():  # rows are only ever added
        assert counts == sorted(counts) and counts[-1] <= 2 * 150
    assert model.user_vector("e1-149").tolist() == [149.0] * F
    assert model.user_bias("e0-7") == 7.0


def test_history_pushes_from_many_threads_all_land():
    """Per-user pushes from threads that each own their users (fields
    grouping by user) land in one history table without a lock."""
    history = UserHistoryStore(ModelState(), max_items=5)
    _hammer(lambda t, i: history.add(f"u{t}", f"v{i}", float(i)))
    for t in range(4):
        assert history.recent(f"u{t}") == [f"v{i}" for i in range(149, 144, -1)]
