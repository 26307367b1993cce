"""Namespaced views over a shared key-value store.

The Figure 2 topology keeps several logical tables in one physical KV store:
user vectors, video vectors, user histories, and similar-video lists.  A
:class:`Namespace` wraps a backing store and prefixes every key with a label
so the tables cannot collide, while still sharing the backing shards.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from .store import Key, KVStore


class Namespace(KVStore):
    """A view of ``backing`` whose keys are transparently prefixed.

    Keys are wrapped as ``(prefix, key)`` tuples, so any hashable key stays
    usable and iteration can recover the original keys exactly.
    """

    def __init__(self, backing: KVStore, prefix: str) -> None:
        if not prefix:
            raise ValueError("namespace prefix must be non-empty")
        self._backing = backing
        self._prefix = prefix

    def _wrap(self, key: Key) -> tuple[str, Key]:
        return (self._prefix, key)

    # -- delegation ---------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        return self._backing.get(self._wrap(key), default)

    def put(self, key: Key, value: Any) -> None:
        self._backing.put(self._wrap(key), value)

    def delete(self, key: Key) -> bool:
        return self._backing.delete(self._wrap(key))

    def update(self, key: Key, fn: Callable[[Any], Any], default: Any = None) -> Any:
        return self._backing.update(self._wrap(key), fn, default=default)

    def mget(self, keys, default: Any = None) -> list[Any]:
        """Batch get: wraps every key, then delegates one batch call so a
        batch-capable backing store sees the whole batch at once."""
        return self._backing.mget(
            [self._wrap(key) for key in keys], default
        )

    def mput(self, items) -> None:
        """Batch put with prefixed keys, delegated as one batch call."""
        self._backing.mput([(self._wrap(key), value) for key, value in items])

    def __contains__(self, key: Key) -> bool:
        return self._wrap(key) in self._backing

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[Key]:
        for key in self._backing.keys():
            if (
                isinstance(key, tuple)
                and len(key) == 2
                and key[0] == self._prefix
            ):
                yield key[1]
