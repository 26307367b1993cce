"""``InstrumentedKVStore`` counts the model's two ops and nothing else.

``get`` and ``update`` bump ``kvstore_ops_total{op=...}`` once per call
and, inside an active span, record one ``kv.<op>`` child span; the
checkpoint pair passes through uncounted.  What the counters read is what
``MAX_KV_OPS_PER_ACTION`` and the served process's KV metrics rest on, so
every call must be counted exactly once — including an update whose
callable raises.
"""

import pytest

from repro.kvstore import InMemoryKVStore
from tests.support.kv import RecordingKVStore, put
from tests.support.obs import counter_totals, deterministic_obs


@pytest.fixture
def obs():
    return deterministic_obs()


def _ops(obs) -> dict[str, float]:
    return {
        key: value
        for key, value in counter_totals(obs.registry).items()
        if key.startswith("kvstore_ops_total")
    }


def test_each_get_and_update_counts_once(obs):
    store = obs.instrument_store(InMemoryKVStore())
    for i in range(3):
        put(store, f"k{i}", i)
    store.update("k0", lambda n: n + 1)
    for key in ("k0", "k1", "absent"):
        store.get(key)
    assert _ops(obs) == {
        "kvstore_ops_total{op=get}": 3.0,
        "kvstore_ops_total{op=update}": 4.0,
    }


def test_counts_equal_the_calls_that_reach_the_inner_store(obs):
    inner = RecordingKVStore(InMemoryKVStore())
    store = obs.instrument_store(inner)
    for i in range(25):
        store.update(("hot", i % 4), lambda n: n + 1, default=0)
        store.get(("history", i % 3))
    ops = _ops(obs)
    assert ops["kvstore_ops_total{op=update}"] == inner.calls["update"] == 25
    assert ops["kvstore_ops_total{op=get}"] == inner.calls["get"] == 25


def test_the_checkpoint_pair_is_not_counted(obs):
    store = obs.instrument_store(InMemoryKVStore())
    put(store, "a", 1)
    entries = store.snapshot_entries()
    assert store.restore_entries(entries) == 1
    assert _ops(obs) == {"kvstore_ops_total{op=update}": 1.0}


def test_a_failing_update_is_counted(obs):
    store = obs.instrument_store(InMemoryKVStore())

    def boom(_value):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        store.update("k", boom)
    assert _ops(obs) == {"kvstore_ops_total{op=update}": 1.0}


def test_ops_start_spans_only_inside_a_trace(obs):
    store = obs.instrument_store(InMemoryKVStore())
    put(store, "outside", 0)
    store.get("outside")
    assert obs.tracer.finished_spans() == []

    with obs.tracer.span("request") as root:
        put(store, "inside", 1)
        store.get("inside")
        store.get("absent")
    kv = [s for s in obs.tracer.finished_spans() if s.name.startswith("kv.")]
    assert [s.name for s in kv] == ["kv.update", "kv.get", "kv.get"]
    assert all(s.trace_id == root.trace_id for s in kv)
