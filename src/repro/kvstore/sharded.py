"""Sharded key-value store — the "distributed" store of the paper, in-process.

Keys are routed to shards by :func:`repro.hashing.stable_bucket`, so a given
key always lives on the same shard (and therefore behind the same lock).
This mirrors the property the paper leans on in §5.1: a vector ``x_u`` or
``y_i`` can be read and written "by its corresponding key ... without
influencing other vectors", letting computation scale across workers.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from ..hashing import stable_bucket
from .store import EntrySnapshot, InMemoryKVStore, Key, KVStore


class ShardedKVStore(KVStore):
    """A :class:`KVStore` composed of ``n_shards`` independent shards.

    Each shard is an :class:`InMemoryKVStore` with its own lock, so writes to
    keys on different shards never contend.  All single-key operations are
    delegated to the owning shard; whole-store iteration walks shards in
    order.
    """

    def __init__(self, n_shards: int = 16) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self._shards = [InMemoryKVStore() for _ in range(n_shards)]

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_index(self, key: Key) -> int:
        """Return the index of the shard that owns ``key`` (stable)."""
        return stable_bucket(key, len(self._shards))

    def shard_for(self, key: Key) -> InMemoryKVStore:
        """Return the shard object that owns ``key``."""
        return self._shards[self.shard_index(key)]

    # -- delegation ---------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        return self.shard_for(key).get(key, default)

    def put(self, key: Key, value: Any) -> None:
        self.shard_for(key).put(key, value)

    def delete(self, key: Key) -> bool:
        return self.shard_for(key).delete(key)

    def update(self, key: Key, fn: Callable[[Any], Any], default: Any = None) -> Any:
        return self.shard_for(key).update(key, fn, default=default)

    def mget(self, keys: Iterable[Key], default: Any = None) -> list[Any]:
        """Batch get: keys are grouped per shard, one :meth:`mget` per
        shard, and results are reassembled in input order."""
        keys = list(keys)
        groups: dict[int, list[int]] = {}
        for position, key in enumerate(keys):
            groups.setdefault(self.shard_index(key), []).append(position)
        out: list[Any] = [default] * len(keys)
        for shard_idx, positions in groups.items():
            values = self._shards[shard_idx].mget(
                [keys[p] for p in positions], default
            )
            for position, value in zip(positions, values):
                out[position] = value
        return out

    def mput(self, items: Iterable[tuple[Key, Any]]) -> None:
        """Batch put: one :meth:`mput` per owning shard, input order kept
        within each shard."""
        groups: dict[int, list[tuple[Key, Any]]] = {}
        for item in items:
            groups.setdefault(self.shard_index(item[0]), []).append(item)
        for shard_idx, shard_items in groups.items():
            self._shards[shard_idx].mput(shard_items)

    def __contains__(self, key: Key) -> bool:
        return key in self.shard_for(key)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def keys(self) -> Iterator[Key]:
        for shard in self._shards:
            yield from shard.keys()

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()

    # -- checkpoint support ------------------------------------------------

    def snapshot_entries(self) -> list[EntrySnapshot]:
        """Capture shard by shard, each under its lock (not atomic across
        shards — checkpoint callers quiesce writers first)."""
        entries: list[EntrySnapshot] = []
        for shard in self._shards:
            entries.extend(shard.snapshot_entries())
        return entries
