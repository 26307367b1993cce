"""The KV contract is the system's traffic, and nothing more.

A recording store sits under every path that touches model state: a
durable demo boot (training, then a checkpoint), served requests and
ingested actions, a restart (``RecoveryManager.recover``), and the
Figure-2 topology under both executors.  Together they must call exactly
the methods :class:`~repro.kvstore.KVStore` declares, store under exactly
the four key prefixes of the model's components, and never call into the
store while holding a stored value's own lock.
"""

import asyncio

from repro.core.arena import FactorArena
from repro.data import ActionType, UserAction
from repro.kvstore import InMemoryKVStore
from repro.serving import GatewayConfig, RecRequest
from repro.serving.cli import build_demo_gateway
from repro.storm import LocalExecutor, ThreadedExecutor
from repro.topology.pipeline import build_recommendation_topology
from tests.support.kv import (
    RecordingKVStore,
    declared_methods,
    record_demo_stores,
)

DEMO_WORLD = dict(n_users=10, n_videos=30, seed=7)


def _served_traffic(data_dir) -> None:
    """Boot durably, serve and ingest one round per user, then restart."""
    gateway = build_demo_gateway(
        GatewayConfig(port=0), rate=None, data_dir=data_dir, **DEMO_WORLD
    )
    recommender = gateway.router.recommender
    videos = sorted(recommender.videos)
    for i, user in enumerate(sorted(recommender.users)):
        assert gateway.router.handle(RecRequest(user, timestamp=2e7)).ok
        gateway.observe(
            UserAction(2e7 + i, user, videos[i % len(videos)], ActionType.CLICK)
        )
    restarted = build_demo_gateway(
        GatewayConfig(port=0), rate=None, data_dir=data_dir, **DEMO_WORLD
    )
    for served in (gateway, restarted):
        asyncio.run(served.stop())


def _topology_traffic(world, actions) -> list[RecordingKVStore]:
    stores = []
    for executor in (LocalExecutor, ThreadedExecutor):
        store = RecordingKVStore(InMemoryKVStore())
        topology, _ = build_recommendation_topology(
            list(actions), world.videos, store=store
        )
        executor(topology).run()
        stores.append(store)
    return stores


def test_the_system_calls_exactly_the_kv_contract(
    monkeypatch, tmp_path, small_world, small_actions, capsys
):
    recorders = record_demo_stores(monkeypatch)
    _served_traffic(tmp_path)
    assert "checkpoint=ckpt-" in capsys.readouterr().out  # recover restored
    stores = recorders + _topology_traffic(small_world, small_actions[:400])
    assert len(stores) == 4

    called = set().union(*(store.calls for store in stores))
    assert called == declared_methods()
    prefixes = set().union(*(store.prefixes() for store in stores))
    assert prefixes == {"history", "hot", "mf:meta", "simtable"}
    assert [store.lock_order_violations for store in stores] == [0] * 4


def test_a_value_lock_held_into_the_store_is_caught():
    """The recorder's lock-order check sees a call made under a stored
    value's lock."""
    store = RecordingKVStore(InMemoryKVStore())
    arena = store.update("arena", lambda _old: FactorArena(2))
    store.get("other")
    assert store.lock_order_violations == 0
    with arena._lock:
        store.get("other")
    assert store.lock_order_violations == 1


def test_the_recorder_counts_every_method_and_key():
    store = RecordingKVStore(InMemoryKVStore())
    store.update(("history", "u1"), lambda _old: ["v1"])
    store.get(("history", "u1"))
    store.get(("hot", "__all__"))
    store.restore_entries(store.snapshot_entries())
    assert store.calls == {
        "update": 1,
        "get": 2,
        "snapshot_entries": 1,
        "restore_entries": 1,
    }
    assert store.keys == {("history", "u1"), ("hot", "__all__")}
    assert store.prefixes() == {"history", "hot"}


def test_keys_that_are_not_pairs_show_as_their_repr():
    """A key outside the ``(prefix, key)`` scheme cannot pass for one of
    the model's prefixes."""
    store = RecordingKVStore(InMemoryKVStore())
    store.get("history")
    store.get(("history", "u1", "extra"))
    assert store.prefixes() == {"'history'", "('history', 'u1', 'extra')"}
