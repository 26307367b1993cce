"""Key-value storage substrate: the in-memory store the model lives in.

Stands in for the paper's "distributed memory-based key-value storage"
(§5.1).  See :mod:`repro.kvstore.store` for the interface and the store.
Each model component keeps its entries under ``(prefix, key)`` tuples
(``history``, ``hot``, ``mf:meta``, ``simtable``) so they share one store
without colliding.  Persistence is not a store: the write-ahead log and
full checkpoints in :mod:`repro.reliability` make the store recoverable.
"""

from .store import EntrySnapshot, InMemoryKVStore, Key, KVStore

__all__ = [
    "KVStore",
    "Key",
    "EntrySnapshot",
    "InMemoryKVStore",
]
