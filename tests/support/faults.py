"""Deterministic fault injection for the KV store, and the delivery
accounting every aborted topology run must satisfy.

* **transient KV errors** — :class:`FlakyKVStore` wraps any store and makes
  every Nth operation raise :class:`TransientKVError`, simulating a shard
  timing out.  The schedule is a counter, so a failing run replays exactly.
* **delivery accounting** — :func:`unaccounted` lists the bolts whose
  ``processed + failed + shed`` differs from the deliveries the run routed
  to them; whether the run finished or aborted, there must be none.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping

from repro.errors import ReproError
from repro.kvstore import Key, KVStore
from repro.storm import Topology


class TransientKVError(ReproError):
    """A shard failed transiently (timeout, connection blip); retryable."""


class FlakyKVStore(KVStore):
    """A store whose operations fail transiently on a fixed schedule.

    Every ``error_every``-th operation (across get/update)
    raises :class:`~repro.errors.TransientKVError` *before* touching the
    underlying store, so a retried operation sees unchanged state.
    ``error_every=0`` disables injection; :meth:`fail_next` forces the next
    operation to fail regardless, for targeted tests.
    """

    def __init__(self, inner: KVStore, error_every: int = 0) -> None:
        if error_every < 0:
            raise ValueError(f"error_every must be >= 0, got {error_every}")
        self.inner = inner
        self.error_every = error_every
        self.errors_raised = 0
        self._ops = 0
        self._force_fail = 0
        self._lock = threading.Lock()

    def fail_next(self, n: int = 1) -> None:
        """Make the next ``n`` operations raise unconditionally."""
        with self._lock:
            self._force_fail += n

    def _maybe_fail(self, op: str, key: Any) -> None:
        with self._lock:
            self._ops += 1
            fail = False
            if self._force_fail > 0:
                self._force_fail -= 1
                fail = True
            elif self.error_every and self._ops % self.error_every == 0:
                fail = True
            if fail:
                self.errors_raised += 1
        if fail:
            raise TransientKVError(
                f"injected transient failure on {op}({key!r})"
            )

    # -- KVStore API (fault check, then delegate) --------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        self._maybe_fail("get", key)
        return self.inner.get(key, default)

    def update(self, key: Key, fn: Callable[[Any], Any], default: Any = None) -> Any:
        self._maybe_fail("update", key)
        return self.inner.update(key, fn, default=default)

    def snapshot_entries(self):
        return self.inner.snapshot_entries()

    def restore_entries(self, entries):
        return self.inner.restore_entries(entries)


def unaccounted(
    topology: Topology, snapshot: Mapping[str, Mapping[str, float]]
) -> dict[str, tuple[int, int]]:
    """Bolts whose ``processed + failed + shed`` differs from the
    deliveries the run routed to them, as ``name -> (routed, accounted)``.

    Fields grouping sends each emitted tuple to exactly one worker of every
    subscribed bolt, so a bolt receives one delivery per tuple its sources
    emitted.  Exact when every stream a component emits on has the same
    subscribers — true of the Figure-2 topology and the test topologies.
    """
    out: dict[str, tuple[int, int]] = {}
    for name, spec in topology.components.items():
        if spec.is_spout:
            continue
        sources = {sub.source for sub in spec.subscriptions}
        routed = sum(int(snapshot[source]["emitted"]) for source in sources)
        row = snapshot[name]
        accounted = int(row["processed"] + row["failed"] + row["shed"])
        if accounted != routed:
            out[name] = (routed, accounted)
    return out
