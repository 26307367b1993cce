"""Observability wrapper for KV stores: op counters and spans.

The paper's serving path is dominated by KV traffic (vectors, histories,
similar-video lists all live in the "distributed memory-based key-value
storage", §5.1), so per-op visibility is where latency attribution ends.
:class:`InstrumentedKVStore` wraps any :class:`~repro.kvstore.KVStore`
and, per operation, bumps ``kvstore_ops_total{op=...}`` and — only when
the calling thread already has an active span, so bulk offline work does
not flood the tracer — records a ``kv.<op>`` child span.  That makes the
router→recommender→KV call chain one causally-linked trace.

``RealtimeRecommender.observe`` makes about 6.4 KV ops per action, so an
untraced op costs one counter increment (its child cached per op name)
and an ambient-span check; nothing times it — a span's duration is the
op's latency.

The counted ops are the model's two, ``get`` and ``update``; the
checkpoint pair passes through uncounted.  Registry and
tracer are both required — :meth:`repro.obs.Observability.instrument_store`
is the one place this class is built.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..kvstore.store import EntrySnapshot, Key, KVStore
from .registry import Children, MetricsRegistry
from .trace import Tracer

__all__ = ["InstrumentedKVStore"]


class InstrumentedKVStore(KVStore):
    """Delegating KV store that reports into a registry and a tracer.

    Purely additive: every call forwards to ``inner`` with identical
    semantics, so wrapping a store changes nothing but what is counted.
    """

    def __init__(
        self, inner: KVStore, registry: MetricsRegistry, tracer: Tracer
    ) -> None:
        self.inner = inner
        self._tracer = tracer
        self._ops = Children(
            registry.counter(
                "kvstore_ops_total",
                "KV operations by op name",
                labelnames=("op",),
            )
        )

    def _count(self, op: str) -> bool:
        """Count one ``op``; whether the calling thread is inside a trace.
        Untraced, ops call ``inner`` directly: no closure, no ``*args``."""
        self._ops[op].inc()
        return self._tracer.current_span() is not None

    def _traced(self, op: str, fn: Callable[..., Any], *args: Any) -> Any:
        span = self._tracer.start_span(f"kv.{op}")
        try:
            return fn(*args)
        finally:
            span.finish()

    # -- KVStore API -------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        if self._count("get"):
            return self._traced("get", self.inner.get, key, default)
        return self.inner.get(key, default)

    def update(
        self, key: Key, fn: Callable[[Any], Any], default: Any = None
    ) -> Any:
        if self._count("update"):
            return self._traced("update", self.inner.update, key, fn, default)
        return self.inner.update(key, fn, default)

    # -- checkpoint support (delegated, uncounted) ------------------------

    def snapshot_entries(self) -> list[EntrySnapshot]:
        return self.inner.snapshot_entries()

    def restore_entries(self, entries: Iterable[EntrySnapshot]) -> int:
        return self.inner.restore_entries(entries)
