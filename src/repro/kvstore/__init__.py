"""Key-value storage substrate: in-memory tiers plus a durable log.

Stands in for the paper's "distributed memory-based key-value storage"
(§5.1).  See :mod:`repro.kvstore.store` for the interface,
:mod:`repro.kvstore.sharded` for the sharded variant,
:mod:`repro.kvstore.cache` for the per-worker write-back cache (§5.1's
cache + combiner), and :mod:`repro.kvstore.durable` for the log-structured
persistent tier that sits under the cache hierarchy.
"""

from .cache import ReadThroughCache
from .durable import (
    CompactionReport,
    DurableKVStore,
    FSYNC_POLICIES,
    drop_caches,
    flush_caches,
    unwrap_durable,
)
from .namespace import Namespace
from .sharded import ShardedKVStore
from .store import EntrySnapshot, InMemoryKVStore, Key, KVStore

__all__ = [
    "KVStore",
    "Key",
    "EntrySnapshot",
    "InMemoryKVStore",
    "ShardedKVStore",
    "DurableKVStore",
    "CompactionReport",
    "FSYNC_POLICIES",
    "unwrap_durable",
    "flush_caches",
    "drop_caches",
    "Namespace",
    "ReadThroughCache",
]
