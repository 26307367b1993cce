"""Concurrency tests: the store must be safe under real thread interleaving."""

import threading

import pytest

from repro.kvstore import EntrySnapshot, InMemoryKVStore, ShardedKVStore


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

    def test_concurrent_increments_sharded(self):
        store = ShardedKVStore(n_shards=4)
        _hammer(
            lambda t, i: store.update(f"k{i % 10}", lambda x: x + 1, default=0)
        )
        assert sum(store.get(f"k{i}") for i in range(10)) == 8 * 200

    def test_concurrent_puts_distinct_keys(self):
        store = ShardedKVStore(n_shards=4)
        _hammer(lambda t, i: store.put((t, i), i))
        assert len(store) == 8 * 200


class TestAtomicRestore:
    """``InMemoryKVStore.restore_entries`` swaps the whole contents under
    one lock: a reader racing a checkpoint restore sees the old contents
    or the new, never a mix or a half-emptied store."""

    OLD = [EntrySnapshot(f"old{i}", i) for i in range(10)]
    NEW = [EntrySnapshot(f"new{i}", -i) for i in range(20)]

    def _views(self, store):
        keys = [e.key for e in self.OLD + self.NEW]
        old_view = [e.value for e in self.OLD] + [None] * len(self.NEW)
        new_view = [None] * len(self.OLD) + [e.value for e in self.NEW]
        return {
            "len": (lambda: len(store), (10, 20)),
            "snapshot": (
                lambda: sorted(e.key for e in store.snapshot_entries()),
                (
                    sorted(e.key for e in self.OLD),
                    sorted(e.key for e in self.NEW),
                ),
            ),
            "mget": (lambda: store.mget(keys), (old_view, new_view)),
        }

    @pytest.mark.parametrize("view", ["len", "snapshot", "mget"])
    def test_readers_never_see_a_half_restored_store(self, view):
        store = InMemoryKVStore()
        store.restore_entries(self.OLD)
        read, allowed = self._views(store)[view]
        seen = []

        def step(thread_idx, i):
            if thread_idx == 0:
                store.restore_entries(self.NEW if i % 2 == 0 else self.OLD)
            else:
                seen.append(read())

        _hammer(step, n_threads=4, n_iter=300)
        assert seen and all(observed in allowed for observed in seen)
