"""The model's components share one store by key prefix.

``UserHistoryStore``, ``HotVideoTracker``, ``MFModel`` and
``SimilarVideoTable`` each keep their entries under ``(PREFIX, key)``
tuples.  The prefixes are part of the checkpoint format — a data dir
written by an earlier build restores only if they are unchanged — and
they are what lets the four components live in one store: each reads and
writes only its own keys, whatever else the store holds.
"""

import pytest

from repro.config import MFConfig
from repro.core import demographic, history, mf, simtable
from repro.core.demographic import HotVideoTracker
from repro.core.history import UserHistoryStore
from repro.core.mf import MFModel
from repro.core.simtable import SimilarVideoTable
from repro.data.schema import Video
from repro.kvstore import InMemoryKVStore
from tests.support.kv import RecordingKVStore, contents, put

_VIDEOS = {
    vid: Video(vid, kind, 100.0)
    for vid, kind in (("v1", "a"), ("v2", "a"), ("v3", "b"))
}


class _History:
    prefix = "history"

    def __init__(self, store):
        self.history = UserHistoryStore(store)

    def write(self):
        self.history.add("u1", "v1", 1.0)
        self.history.add("u1", "v2", 2.0)

    def read(self):
        return self.history.recent("u1")


class _Hot:
    prefix = "hot"

    def __init__(self, store):
        self.tracker = HotVideoTracker(store=store)

    def write(self):
        self.tracker.record("u1", "v1", now=1.0)
        self.tracker.record("u1", "v2", weight=3.0, now=1.0)

    def read(self):
        return self.tracker.hot("u1", now=1.0)


class _MF:
    prefix = "mf:meta"

    def __init__(self, store):
        self.model = MFModel(MFConfig(f=4, seed=3), store=store)

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
    prefix = "simtable"

    def __init__(self, store):
        model = MFModel(MFConfig(f=4, seed=3), store=InMemoryKVStore())
        self.table = SimilarVideoTable(_VIDEOS, model, store=store)

    def write(self):
        self.table.insert_scored("v1", "v2", 0.5, 1.0)
        self.table.insert_scored("v2", "v1", 0.5, 1.0)
        self.table.insert_scored("v1", "v3", 0.25, 1.0)

    def read(self):
        return self.table.neighbors("v1", now=1.0)


_COMPONENTS = {c.prefix: c for c in (_History, _Hot, _MF, _SimTable)}


@pytest.fixture(params=sorted(_COMPONENTS))
def component(request):
    return _COMPONENTS[request.param]


def test_prefixes_are_the_checkpoint_names():
    assert (history.PREFIX, demographic.PREFIX, mf.PREFIX, simtable.PREFIX) == (
        "history",
        "hot",
        "mf:meta",
        "simtable",
    )


def test_component_writes_only_under_its_prefix(component):
    store = RecordingKVStore(InMemoryKVStore())
    made = component(store)
    made.write()
    made.read()
    assert store.prefixes() == {component.prefix}
    assert all(
        isinstance(key, tuple) and len(key) == 2 for key in contents(store)
    )


def test_component_ignores_foreign_keys(component):
    """Entries someone else wrote — bare keys, other prefixes, the same id
    under another prefix — neither show in a component's reads nor change
    under its writes."""
    alone = component(InMemoryKVStore())
    alone.write()

    store = InMemoryKVStore()
    foreign = {
        "u1": "bare",
        ("other", "u1"): "other",
        ("other", "v1"): "other",
        ("history:x", "u1"): "near miss",
    }
    for key, value in foreign.items():
        put(store, key, value)
    shared = component(store)
    shared.write()

    assert shared.read() == alone.read()
    for key, value in foreign.items():
        assert store.get(key) == value


def test_component_state_survives_a_snapshot_restore(component):
    """A component rebuilt over a store restored from another's snapshot
    reads what the first one wrote: recovery builds the model first and
    restores the checkpoint into its store afterwards."""
    source = InMemoryKVStore()
    written = component(source)
    written.write()

    target = InMemoryKVStore()
    rebuilt = component(target)
    target.restore_entries(source.snapshot_entries())
    assert rebuilt.read() == written.read()


def test_components_sharing_one_store_do_not_collide():
    """All four components over one store, writing the same user and video
    ids, read exactly what each reads over a store of its own."""
    shared = InMemoryKVStore()
    together = {prefix: make(shared) for prefix, make in _COMPONENTS.items()}
    for made in together.values():
        made.write()
    for prefix, make in _COMPONENTS.items():
        alone = make(InMemoryKVStore())
        alone.write()
        assert together[prefix].read() == alone.read()
    assert {key[0] for key in contents(shared)} == set(_COMPONENTS)
