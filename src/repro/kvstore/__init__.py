"""Key-value storage substrate: the in-memory store the model lives in.

Stands in for the paper's "distributed memory-based key-value storage"
(§5.1).  See :mod:`repro.kvstore.store` for the interface and the
single-shard store, :mod:`repro.kvstore.sharded` for the sharded variant
and :mod:`repro.kvstore.namespace` for prefixed views.  Persistence is not
a store: the write-ahead log and full checkpoints in
:mod:`repro.reliability` make any of these stores recoverable.
"""

from .namespace import Namespace
from .sharded import ShardedKVStore
from .store import EntrySnapshot, InMemoryKVStore, Key, KVStore

__all__ = [
    "KVStore",
    "Key",
    "EntrySnapshot",
    "InMemoryKVStore",
    "ShardedKVStore",
    "Namespace",
]
