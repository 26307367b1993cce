"""Model-based test of the KV stack: every store is a plain ``dict``.

One hypothesis state machine drives the whole :class:`~repro.kvstore.KVStore`
contract (``get`` / ``put`` / ``delete`` / ``update`` / ``setdefault`` /
``mget`` / ``mput`` / membership / ``len`` / ``keys`` / ``items`` /
``snapshot_entries`` → ``restore_entries``) against a dict, and after every
step compares the full contents.  It runs over the three base stores, a
pair of namespaces sharing one store (isolation), a small write-back cache
over memory, and the two stacks ``repro-serve`` actually builds:
instrumentation over memory, and instrumentation over a small write-back
cache over the durable log — the durable ones also compact and close →
reopen mid-sequence, the cached ones also ``flush``.  Both caches hold three
entries, so unflushed writes are evicted, re-read, deleted and compacted
under across rules: none may be lost and none resurrected.

Tier-1 draws the ``deterministic`` profile (``tests/conftest.py``); the
scheduled ``explore`` CI job runs ``tests/properties`` with fresh draws.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.kvstore import (
    DurableKVStore,
    InMemoryKVStore,
    Namespace,
    ReadThroughCache,
    ShardedKVStore,
)
from tests.support.obs import deterministic_obs

_ABSENT = "<absent>"

_KEYS = ["a", "b", "c", "k3", ("t", 1), ("t", 2), ("left", "a"), ("right", "a")]
keys = st.sampled_from(_KEYS)
values = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.lists(st.integers(min_value=0, max_value=3), max_size=3),
)
views = st.integers(min_value=0, max_value=1)


def _cache_under(store) -> ReadThroughCache | None:
    """The write-back cache in a view's wrapper chain, if it has one."""
    while store is not None and not isinstance(store, ReadThroughCache):
        store = getattr(store, "inner", None)
    return store


def _durable(root: Path) -> DurableKVStore:
    # Tiny segments and compaction thresholds: a 25-step run rotates
    # segments and auto-compacts, not just appends to one file.
    return DurableKVStore(
        root,
        fsync="never",
        segment_max_bytes=256,
        compact_min_bytes=512,
        compact_min_dead_ratio=0.5,
    )


class KVStoreMachine(RuleBasedStateMachine):
    """Subclasses say what to build; ``build(root)`` returns the store views
    under test (one, or two that must stay isolated) and the durable log
    beneath them, if any."""

    def build(self, root: Path):
        raise NotImplementedError

    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="kv-machine-"))
        self.fresh_count = 0
        self.views, self.durable = self.build(self.root / "store")
        self.models: list[dict] = [{} for _ in self.views]

    def teardown(self) -> None:
        if self.durable is not None:
            self.durable.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def _pick(self, view: int):
        index = view % len(self.views)
        return self.views[index], self.models[index]

    # -- single-key operations ---------------------------------------------

    @rule(view=views, key=keys, value=values)
    def put(self, view, key, value):
        store, model = self._pick(view)
        assert store.put(key, value) is None
        assert store.get(key, _ABSENT) == value  # read-your-writes
        model[key] = value

    @rule(view=views, key=keys)
    def delete(self, view, key):
        store, model = self._pick(view)
        assert store.delete(key) is (key in model)
        model.pop(key, None)

    @rule(view=views, key=keys, delta=st.integers(0, 9), default=values)
    def update(self, view, key, delta, default):
        store, model = self._pick(view)

        def fn(current):
            # Keeps what it was handed (flattened, so values stay small).
            kept = current[1] if isinstance(current, tuple) else current
            return (delta, kept)

        expected = fn(model.get(key, default))
        assert store.update(key, fn, default=default) == expected
        assert store.get(key, _ABSENT) == expected
        model[key] = expected

    @rule(view=views, key=keys, value=values)
    def setdefault(self, view, key, value):
        store, model = self._pick(view)
        assert store.setdefault(key, lambda: value) == model.setdefault(key, value)

    @rule(view=views, key=keys)
    def get_and_contains(self, view, key):
        store, model = self._pick(view)
        assert store.get(key, _ABSENT) == model.get(key, _ABSENT)
        assert (key in store) is (key in model)

    @rule(view=views)
    def items(self, view):
        store, model = self._pick(view)
        assert dict(store.items()) == model

    # -- batch operations --------------------------------------------------

    @rule(view=views, items=st.lists(st.tuples(keys, values), max_size=6))
    def mput(self, view, items):
        store, model = self._pick(view)
        assert store.mput(items) is None
        model.update(items)
        written = [key for key, _ in items]
        assert store.mget(written) == [model[key] for key in written]

    @rule(view=views, batch=st.lists(keys, max_size=6))
    def mget(self, view, batch):
        store, model = self._pick(view)
        assert store.mget(batch, _ABSENT) == [
            model.get(key, _ABSENT) for key in batch
        ]

    # -- checkpoint round trip ---------------------------------------------

    @rule(view=views)
    def snapshot_restores_into_a_fresh_store(self, view):
        store, model = self._pick(view)
        entries = store.snapshot_entries()
        self.fresh_count += 1
        fresh_views, fresh_durable = self.build(
            self.root / f"fresh-{self.fresh_count}"
        )
        try:
            fresh = fresh_views[view % len(fresh_views)]
            assert fresh.restore_entries(entries) == len(model)
            assert dict(fresh.items()) == model
        finally:
            if fresh_durable is not None:
                fresh_durable.close()

    # -- write-back caches only ---------------------------------------------

    @precondition(lambda self: _cache_under(self.views[0]) is not None)
    @rule()
    def flush(self):
        """After a flush the *backing* store alone holds the dict."""
        cache = _cache_under(self.views[0])
        cache.flush()
        assert {
            entry.key: entry.value
            for entry in cache.backing.snapshot_entries()
        } == self.models[0]
        assert cache.flush() == 0

    # -- durable log only --------------------------------------------------

    @precondition(lambda self: self.durable is not None)
    @rule()
    def compact(self):
        report = self.durable.compact()
        assert report.live_records == len(self.durable)

    @precondition(lambda self: self.durable is not None)
    @rule()
    def close_and_reopen(self):
        """A clean shutdown: what a cache has not flushed is flushed first
        (a crash instead loses it — that is the WAL's job, not the store's)."""
        cache = _cache_under(self.views[0])
        if cache is not None:
            cache.flush()
        self.durable.close()
        self.views, self.durable = self.build(self.root / "store")

    # -- the dict is the specification -------------------------------------

    @invariant()
    def contents_match_the_dict(self):
        """Checked after every step without reading live keys through the
        store, so a cache keeps whatever the rules left in it: a stale
        entry is still there for the next rule — or for the absent-key
        reads below — to trip over.  ``snapshot_entries`` flushes a
        write-back cache, so over one only the key set is checked here and
        unflushed writes live on into the next rule; their values are
        compared by the ``flush``, ``items`` and snapshot rules."""
        for store, model in zip(self.views, self.models):
            listed = list(store.keys())
            assert len(listed) == len(store) == len(model)
            assert set(listed) == set(model)
            for key in _KEYS:
                if key not in model:
                    assert key not in store
                    assert store.get(key, _ABSENT) == _ABSENT
            if _cache_under(store) is None:
                entries = store.snapshot_entries()
                assert len(entries) == len(model)
                assert {entry.key: entry.value for entry in entries} == model


class InMemoryMachine(KVStoreMachine):
    def build(self, root):
        return [InMemoryKVStore()], None


class ShardedMachine(KVStoreMachine):
    def build(self, root):
        return [ShardedKVStore(n_shards=3)], None


class NamespacePairMachine(KVStoreMachine):
    """Two prefixes over one shared store: each view must equal its own
    dict, so a write through one never shows through the other."""

    def build(self, root):
        shared = InMemoryKVStore()
        return [Namespace(shared, "left"), Namespace(shared, "right")], None


class DurableMachine(KVStoreMachine):
    def build(self, root):
        durable = _durable(root)
        return [durable], durable


class CacheOverMemoryMachine(KVStoreMachine):
    """The write-back cache by itself, small enough to evict."""

    def build(self, root):
        return [ReadThroughCache(InMemoryKVStore(), capacity=3)], None


class ServedMemoryStackMachine(KVStoreMachine):
    """``repro-serve`` without ``--data-dir``."""

    def build(self, root):
        obs = deterministic_obs()
        return [obs.instrument_store(InMemoryKVStore())], None


class ServedDurableStackMachine(KVStoreMachine):
    """``repro-serve --data-dir``: the cache is small enough to evict."""

    def build(self, root):
        durable = _durable(root)
        obs = deterministic_obs()
        tier = ReadThroughCache(durable, capacity=3)
        return [obs.instrument_store(tier)], durable


def _case(machine):
    machine.TestCase.settings = settings(
        max_examples=25, stateful_step_count=25, deadline=None
    )
    return machine.TestCase


TestInMemory = _case(InMemoryMachine)
TestSharded = _case(ShardedMachine)
TestNamespacePair = _case(NamespacePairMachine)
TestDurable = _case(DurableMachine)
TestCacheOverMemory = _case(CacheOverMemoryMachine)
TestServedMemoryStack = _case(ServedMemoryStackMachine)
TestServedDurableStack = _case(ServedDurableStackMachine)
