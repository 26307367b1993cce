"""Observability wrapper for KV stores: op counters, latency, spans.

The paper's serving path is dominated by KV traffic (vectors, histories,
similar-video lists all live in the "distributed memory-based key-value
storage", §5.1), so per-op visibility is where latency attribution ends.
:class:`InstrumentedKVStore` wraps any :class:`~repro.kvstore.KVStore`
and, per operation, bumps ``kvstore_ops_total{op=...}``, observes
``kvstore_op_latency_seconds{op=...}``, and — only when the calling thread
already has an active span, so bulk offline work does not flood the
tracer — records a ``kv.<op>`` child span.  That makes the
router→recommender→KV call chain one causally-linked trace.

The ops are the :class:`~repro.kvstore.KVStore` contract's: ``get``,
``put``, ``delete``, ``update``, ``contains``, ``mget``, ``mput``.
Iteration and the checkpoint pair pass through uncounted.  Registry and
tracer are both required — :meth:`repro.obs.Observability.instrument_store`
is the one place this class is built.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from ..kvstore.store import EntrySnapshot, Key, KVStore
from .registry import MetricsRegistry
from .trace import Tracer

__all__ = ["InstrumentedKVStore"]


class InstrumentedKVStore(KVStore):
    """Delegating KV store that reports into a registry and a tracer.

    Purely additive: every call forwards to ``inner`` with identical
    semantics, so it can wrap :class:`~repro.kvstore.InMemoryKVStore`,
    :class:`~repro.kvstore.ShardedKVStore`, or another wrapper (e.g. a
    :class:`~repro.kvstore.ReadThroughCache` over the durable log)
    without behavioural change.
    """

    def __init__(
        self, inner: KVStore, registry: MetricsRegistry, tracer: Tracer
    ) -> None:
        self.inner = inner
        self._tracer = tracer
        self._ops = registry.counter(
            "kvstore_ops_total",
            "KV operations by op name",
            labelnames=("op",),
        )
        self._latency = registry.histogram(
            "kvstore_op_latency_seconds",
            "KV operation latency by op name",
            labelnames=("op",),
        )
        self._batch_keys = registry.counter(
            "kvstore_batch_keys_total",
            "Keys carried by batch KV operations, by op name",
            labelnames=("op",),
        )

    def _call(self, op: str, fn: Callable[[], Any]) -> Any:
        self._ops.labels(op=op).inc()
        span = None
        if self._tracer.current_span() is not None:
            span = self._tracer.start_span(f"kv.{op}")
        try:
            with self._latency.labels(op=op).time():
                return fn()
        finally:
            if span is not None:
                span.finish()

    # -- KVStore API -------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        return self._call("get", lambda: self.inner.get(key, default))

    def put(self, key: Key, value: Any) -> None:
        self._call("put", lambda: self.inner.put(key, value))

    def delete(self, key: Key) -> bool:
        return self._call("delete", lambda: self.inner.delete(key))

    def update(
        self, key: Key, fn: Callable[[Any], Any], default: Any = None
    ) -> Any:
        return self._call("update", lambda: self.inner.update(key, fn, default))

    def mget(self, keys, default: Any = None) -> list[Any]:
        """Batch get: one ``mget`` op count/span for the whole batch, plus
        the batch size in ``kvstore_batch_keys_total{op="mget"}``."""
        keys = list(keys)
        self._batch_keys.labels(op="mget").inc(len(keys))
        return self._call("mget", lambda: self.inner.mget(keys, default))

    def mput(self, items) -> None:
        """Batch put: one ``mput`` op count/span for the whole batch."""
        items = list(items)
        self._batch_keys.labels(op="mput").inc(len(items))
        self._call("mput", lambda: self.inner.mput(items))

    def __contains__(self, key: Key) -> bool:
        return self._call("contains", lambda: key in self.inner)

    def __len__(self) -> int:
        return len(self.inner)

    def keys(self) -> Iterator[Key]:
        return self.inner.keys()

    def items(self) -> Iterator[tuple[Key, Any]]:
        return self.inner.items()

    # -- checkpoint support (delegated, so a restore is not counted as
    # -- one put per entry) ------------------------------------------------

    def snapshot_entries(self) -> list[EntrySnapshot]:
        return self.inner.snapshot_entries()

    def restore_entries(self, entries: Iterable[EntrySnapshot]) -> int:
        return self.inner.restore_entries(entries)
