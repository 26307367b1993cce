"""Checkpoint and restore, value by value, on every stand-in for the state.

A checkpoint pickles the whole ``ModelState`` and recovery restores it in
place under components built before it.  Each of the six values is
written here through the component that owns it, and each case checks
one property recovery relies on for that value alone:

* a checkpoint restores the value under a component built before it,
  replacing what the state had moved on to;
* a restore rolls later writes back, and restoring a fresh state empties
  the value;
* a snapshot does not see writes made after it;
* writing the value leaves the other five as a fresh state has them;
* a recovered state checkpoints to the same bytes it was recovered from.

Every case runs over the plain state and over the test stand-ins that
other tests put in its place (the counting state, the fault injector
with no faults scheduled), so what those tests conclude holds for the
state they stand in for.
"""

import pickle

import numpy as np
import pytest

from repro.config import MFConfig
from repro.core import MFModel, ModelState, SimilarVideoTable, UserHistoryStore
from repro.core.demographic import HotVideoTracker
from repro.core.state import VALUES
from repro.data.schema import Video
from repro.reliability import CheckpointManager
from tests.support.faults import FlakyState
from tests.support.state import CountingState, plain

F = MFConfig().f
_VIDEOS = {
    vid: Video(vid, kind, 100.0)
    for vid, kind in (("v1", "a"), ("v2", "a"), ("v3", "b"))
}
_KINDS = {
    "model": ModelState,
    "counting": CountingState,
    "fault_free": FlakyState,
}


class _Factors:
    """One arena, written with ``put_*`` and read row by row."""

    kind = ""

    def __init__(self, state):
        self.model = MFModel(MFConfig(seed=3), state)

    def _put(self, entity, value, bias):
        put = getattr(self.model, f"put_{self.kind}")
        put(entity, np.full(F, value), bias)

    def first(self):
        self._put("e1", 1.0, 0.5)
        self._put("e2", -1.0, 0.0)

    def second(self):
        self._put("e1", 2.0, -0.5)
        self._put("e3", 0.25, 1.5)

    def read(self):
        vector = getattr(self.model, f"{self.kind}_vector")
        bias = getattr(self.model, f"{self.kind}_bias")
        rows = []
        for entity in ("e1", "e2", "e3"):
            found = vector(entity)
            rows.append(
                None if found is None else (found.tolist(), bias(entity))
            )
        return rows


class _Users(_Factors):
    value = "users"
    kind = "user"


class _Videos(_Factors):
    value = "videos"
    kind = "video"


class _Mu:
    value = "mu"

    def __init__(self, state):
        self.model = MFModel(MFConfig(seed=3), state)

    def first(self):
        self.model.observe_rating(1.0)
        self.model.observe_rating(0.0)

    def second(self):
        for _ in range(3):
            self.model.observe_rating(1.0)

    def read(self):
        return self.model.mu


class _Lists:
    value = "lists"

    def __init__(self, state):
        self.table = SimilarVideoTable(_VIDEOS, MFModel(MFConfig(seed=3), state))

    def first(self):
        self.table.insert_scored("v1", "v2", 0.5, 1.0)
        self.table.insert_scored("v2", "v1", 0.5, 1.0)

    def second(self):
        self.table.insert_scored("v1", "v3", 0.9, 2.0)
        self.table.insert_scored("v1", "v2", 0.1, 2.0)

    def read(self):
        return [self.table.neighbors(video, now=2.0) for video in ("v1", "v2")]


class _Histories:
    value = "histories"

    def __init__(self, state):
        self.history = UserHistoryStore(state)

    def first(self):
        self.history.add("u1", "v1", 1.0)
        self.history.add("u1", "v2", 2.0)

    def second(self):
        self.history.add("u1", "v1", 3.0)
        self.history.add("u2", "v3", 3.0)

    def read(self):
        return [self.history.snapshot(user) for user in ("u1", "u2")]


class _Hot:
    value = "hot"

    def __init__(self, state):
        self.tracker = HotVideoTracker(state=state)

    def first(self):
        self.tracker.record("g1", "v1", now=1.0)
        self.tracker.record("g1", "v2", weight=3.0, now=1.0)

    def second(self):
        self.tracker.record("g1", "v1", weight=5.0, now=2.0)
        self.tracker.record("__all__", "v3", now=2.0)

    def read(self):
        return [self.tracker.hot(group, now=2.0) for group in ("g1", "__all__")]


_WRITERS = {
    writer.value: writer
    for writer in (_Users, _Videos, _Lists, _Histories, _Hot, _Mu)
}
assert set(_WRITERS) == set(VALUES)


@pytest.fixture(params=sorted(_KINDS))
def make_state(request):
    return _KINDS[request.param]


@pytest.fixture(params=VALUES)
def writer(request):
    return _WRITERS[request.param]


def test_a_checkpoint_restores_the_value_under_a_component_built_before(
    make_state, writer, tmp_path
):
    manager = CheckpointManager(tmp_path / "ckpt", fsync=False)
    source = make_state()
    written = writer(source)
    written.first()
    manager.create(source, wal_seq=1)

    target = make_state()
    rebuilt = writer(target)
    rebuilt.second()  # the target has moved on past the checkpoint
    assert manager.restore_latest(target) is not None
    assert rebuilt.read() == written.read()
    assert plain(target) == plain(source)


def test_restore_rolls_the_value_back(make_state, writer):
    state = make_state()
    component = writer(state)
    component.first()
    snapshot = pickle.dumps(state)
    expected_read, expected = component.read(), plain(state)
    component.second()
    assert component.read() != expected_read

    state.restore(pickle.loads(snapshot))
    assert component.read() == expected_read
    assert plain(state) == expected


def test_restoring_an_empty_state_empties_the_value(make_state, writer):
    state = make_state()
    component = writer(state)
    component.first()
    component.second()
    state.restore(ModelState())
    assert component.read() == writer(ModelState()).read()
    assert plain(state) == plain(ModelState())


def test_a_snapshot_does_not_see_later_writes_to_the_value(make_state, writer):
    state = make_state()
    component = writer(state)
    component.first()
    snapshot = pickle.dumps(state)
    expected_read, expected = component.read(), plain(state)
    component.second()

    restored = pickle.loads(snapshot)
    assert plain(restored) == expected
    assert writer(restored).read() == expected_read


def test_writing_the_value_leaves_the_others_untouched(make_state, writer):
    state = make_state()
    component = writer(state)
    component.first()
    component.second()
    written, fresh = plain(state), plain(ModelState())
    assert written[writer.value] != fresh[writer.value]
    for name in VALUES:
        if name != writer.value:
            assert written[name] == fresh[name], name


def test_a_recovered_state_checkpoints_the_same_bytes(make_state, writer):
    """Recovery restores a checkpoint and later checkpoints again: the
    restored state pickles to the bytes it was restored from."""
    state = make_state()
    component = writer(state)
    component.first()
    component.second()
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    recovered = make_state()
    recovered.restore(pickle.loads(payload))
    assert pickle.dumps(recovered, protocol=pickle.HIGHEST_PROTOCOL) == payload
