"""Concurrency tests: the store must be safe under real thread interleaving."""

import threading

import numpy as np
import pytest

from repro.core.arena import FactorArena
from repro.kvstore import EntrySnapshot, InMemoryKVStore
from repro.obs import Observability

_FACTORIES = {
    "memory": InMemoryKVStore,
    "instrumented": lambda: Observability.create().instrument_store(
        InMemoryKVStore()
    ),
}


@pytest.fixture(params=sorted(_FACTORIES))
def make(request):
    """The stores the system builds: bare, and under instrumentation."""
    return _FACTORIES[request.param]


def _hammer(fn, n_threads=8, n_iter=200):
    """Run ``fn(thread_idx, i)`` from ``n_threads`` threads concurrently."""
    errors = []
    barrier = threading.Barrier(n_threads)

    def run(thread_idx):
        try:
            barrier.wait()  # maximise interleaving
            for i in range(n_iter):
                fn(thread_idx, i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(t,)) for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


class TestAtomicUpdate:
    def test_concurrent_increments_lose_nothing(self):
        store = InMemoryKVStore()
        _hammer(lambda t, i: store.update("n", lambda x: x + 1, default=0))
        assert store.get("n") == 8 * 200

    def test_concurrent_increments_on_many_keys(self):
        store = InMemoryKVStore()
        _hammer(
            lambda t, i: store.update(f"k{i % 10}", lambda x: x + 1, default=0)
        )
        assert sum(store.get(f"k{i}") for i in range(10)) == 8 * 200

    def test_concurrent_writes_to_distinct_keys(self):
        store = InMemoryKVStore()
        _hammer(lambda t, i: store.update((t, i), lambda _old: i))
        assert len(store.snapshot_entries()) == 8 * 200


class TestAtomicRestore:
    """``InMemoryKVStore.restore_entries`` swaps the whole contents under
    one lock: a reader racing a checkpoint restore sees the old contents
    or the new, never a mix or a half-emptied store."""

    OLD = [EntrySnapshot(f"old{i}", i) for i in range(10)]
    NEW = [EntrySnapshot(f"new{i}", -i) for i in range(20)]

    def test_readers_never_see_a_half_restored_store(self):
        store = InMemoryKVStore()
        store.restore_entries(self.OLD)
        allowed = (
            sorted(e.key for e in self.OLD),
            sorted(e.key for e in self.NEW),
        )
        seen = []

        def step(thread_idx, i):
            if thread_idx == 0:
                store.restore_entries(self.NEW if i % 2 == 0 else self.OLD)
            else:
                seen.append(sorted(e.key for e in store.snapshot_entries()))

        _hammer(step, n_threads=4, n_iter=300)
        assert seen and all(observed in allowed for observed in seen)


class TestLockOrder:
    """Every key shares the store's lock; a stored value with rows of its
    own (a ``FactorArena``) has its own lock, taken inside the store's by
    an ``update`` callable and alone by readers.  Writers through the store
    and readers of the value, racing, neither deadlock nor lose a row."""

    def test_store_writers_and_value_readers_interleave(self, make):
        store = make()
        arena = store.update("arena", lambda _old: FactorArena(2))
        seen = {2: [], 3: []}

        def step(thread_idx, i):
            if thread_idx < 2:
                entity = f"e{thread_idx}-{i}"
                vector = np.full(2, float(i))
                store.update(
                    "arena",
                    lambda current: current.put(entity, vector, float(i))
                    or current,
                )
            else:
                current = store.get("arena")
                with current._lock:
                    seen[thread_idx].append(len(current))
                current.vectors_many([f"e0-{i}", f"e1-{i}"])

        _hammer(step, n_threads=4, n_iter=150)
        assert store.get("arena") is arena
        assert len(arena) == 2 * 150
        for counts in seen.values():  # rows are only ever added
            assert counts == sorted(counts) and counts[-1] <= 2 * 150
        assert arena.vector("e1-149").tolist() == [149.0, 149.0]
        assert arena.bias("e0-7") == 7.0

    def test_updates_of_different_keys_under_one_lock_lose_nothing(self, make):
        """One lock for every key: per-user histories and one shared entry
        written from many threads all land."""
        store = make()

        def step(thread_idx, i):
            store.update(
                ("history", f"u{thread_idx}"),
                lambda entries: [i, *entries][:5],
                default=[],
            )
            store.update(("hot", "__all__"), lambda n: n + 1, default=0)

        _hammer(step)
        assert store.get(("hot", "__all__")) == 8 * 200
        for t in range(8):
            assert store.get(("history", f"u{t}")) == [199, 198, 197, 196, 195]


class TestInstrumentedUnderThreads:
    def test_concurrent_increments_are_all_counted(self):
        """The wrapper's op counter loses no increment under threads, so
        the served process's KV metrics stay exact."""
        obs = Observability.create()
        store = obs.instrument_store(InMemoryKVStore())
        _hammer(lambda t, i: store.update("n", lambda x: x + 1, default=0))
        [series] = obs.registry.snapshot()["kvstore_ops_total"]["series"]
        assert series["labels"] == {"op": "update"}
        assert series["value"] == store.get("n") == 8 * 200
