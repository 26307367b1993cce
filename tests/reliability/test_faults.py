"""Fault-injection harness tests: the KV fault schedule must be
deterministic."""

import pytest

from repro.kvstore import InMemoryKVStore
from tests.support.faults import FlakyKVStore, TransientKVError
from tests.support.kv import put


class TestFlakyKVStore:
    def test_error_schedule_is_periodic(self):
        store = FlakyKVStore(InMemoryKVStore(), error_every=3)
        outcomes = []
        for i in range(9):
            try:
                put(store, f"k{i}", i)
                outcomes.append("ok")
            except TransientKVError:
                outcomes.append("err")
        assert outcomes == ["ok", "ok", "err"] * 3
        assert store.errors_raised == 3

    def test_failed_operation_leaves_state_untouched(self):
        store = FlakyKVStore(InMemoryKVStore())
        put(store, "k", 1)
        store.fail_next()
        with pytest.raises(TransientKVError):
            put(store, "k", 2)
        assert store.get("k") == 1

    def test_fail_next_forces_errors(self):
        store = FlakyKVStore(InMemoryKVStore())
        store.fail_next(2)
        with pytest.raises(TransientKVError):
            store.get("a")
        with pytest.raises(TransientKVError):
            store.update("a", lambda x: x, default=0)
        assert store.get("a", "d") == "d"  # schedule exhausted
