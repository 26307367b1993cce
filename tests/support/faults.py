"""Deterministic fault injection for topologies and the KV store — the
chaos harness of the reliability and executor tests.

Chaos testing only proves something when the chaos is reproducible: every
fault source here is driven either by a per-worker counter (crash every Nth
tuple) or by a per-worker RNG seeded from ``(plan.seed, component,
worker)``, so a failing run can be replayed exactly.

Three fault surfaces:

* **worker crashes** — :class:`ChaosBolt` raises
  :class:`InjectedFault` on a schedule *before* delegating,
  simulating a worker dying with a tuple in hand; under a
  :class:`~repro.reliability.Supervisor` the executor restarts the worker
  and retries the tuple.
* **tuple drops / duplicates** — emitted tuples are suppressed or doubled
  at a seeded rate, exercising downstream idempotence (history dedup,
  last-write-wins vector storage).
* **transient KV errors** — :class:`FlakyKVStore` wraps any store and makes
  every Nth operation raise :class:`TransientKVError`,
  simulating a shard timing out.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import ReproError
from repro.hashing import stable_hash
from repro.kvstore import Key, KVStore
from repro.storm import Bolt, Collector, ComponentContext, StreamTuple, Topology
from repro.storm.topology import ComponentSpec


class InjectedFault(ReproError):
    """A deliberately injected worker crash."""


class TransientKVError(ReproError):
    """A shard failed transiently (timeout, connection blip); retryable."""


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A reproducible chaos schedule.

    ``crash_every`` maps component names to a period: that component's
    workers raise on their Nth, 2Nth, ... delivered tuple.  ``drop_rate``
    and ``duplicate_rate`` apply to every emitted tuple of every wrapped
    bolt.
    """

    seed: int = 0
    crash_every: Mapping[str, int] = field(default_factory=dict)
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        for name, period in self.crash_every.items():
            if period < 1:
                raise ValueError(
                    f"crash_every[{name!r}] must be >= 1, got {period}"
                )
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ValueError(
                f"duplicate_rate must be in [0, 1), got {self.duplicate_rate}"
            )


class ChaosBolt(Bolt):
    """Wraps a real bolt with the plan's crash/drop/duplicate faults.

    The crash fires before the inner bolt runs, so a retried tuple is not
    half-processed twice by the same instance.  A restarted worker is a
    fresh :class:`ChaosBolt` whose counter starts over — exactly like a
    rescheduled Storm worker.
    """

    def __init__(self, inner: Bolt, component: str, plan: FaultPlan) -> None:
        self.inner = inner
        self.component = component
        self.plan = plan
        self._count = 0
        self._rng = random.Random(stable_hash((plan.seed, component)))

    def prepare(self, ctx: ComponentContext) -> None:
        self._rng = random.Random(
            stable_hash((self.plan.seed, self.component, ctx.worker_index))
        )
        self.inner.prepare(ctx)

    def cleanup(self) -> None:
        self.inner.cleanup()

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        self._count += 1
        period = self.plan.crash_every.get(self.component)
        if period is not None and self._count % period == 0:
            raise InjectedFault(
                f"injected crash in {self.component!r} at tuple {self._count}"
            )
        staging = Collector()
        self.inner.process(tup, staging)
        for emitted in staging.drain():
            roll = self._rng.random()
            if roll < self.plan.drop_rate:
                continue
            collector.emit(emitted, stream=emitted.stream)
            if roll < self.plan.drop_rate + self.plan.duplicate_rate:
                collector.emit(emitted, stream=emitted.stream)


def wrap_topology(
    topology: Topology,
    plan: FaultPlan,
    components: Iterable[str] | None = None,
) -> Topology:
    """A copy of ``topology`` with :class:`ChaosBolt` around its bolts.

    ``components`` restricts the chaos to the named bolts (default: every
    bolt).  Spouts, parallelism and wiring are untouched.
    """
    wanted = set(components) if components is not None else None

    def _wrap(spec: ComponentSpec) -> Callable[[], Bolt]:
        inner_factory = spec.factory
        if wanted is not None and spec.name not in wanted:
            return inner_factory
        return lambda: ChaosBolt(inner_factory(), spec.name, plan)

    return Topology(
        {
            name: spec
            if spec.is_spout
            else ComponentSpec(
                name=spec.name,
                factory=_wrap(spec),
                parallelism=spec.parallelism,
                is_spout=False,
                subscriptions=list(spec.subscriptions),
            )
            for name, spec in topology.components.items()
        }
    )


class FlakyKVStore(KVStore):
    """A store whose operations fail transiently on a fixed schedule.

    Every ``error_every``-th operation (across get/put/update/delete)
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

    def put(self, key: Key, value: Any) -> None:
        self._maybe_fail("put", key)
        self.inner.put(key, value)

    def delete(self, key: Key) -> bool:
        self._maybe_fail("delete", key)
        return self.inner.delete(key)

    def update(self, key: Key, fn: Callable[[Any], Any], default: Any = None) -> Any:
        self._maybe_fail("update", key)
        return self.inner.update(key, fn, default=default)

    def __contains__(self, key: Key) -> bool:
        return key in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    def keys(self) -> Iterator[Key]:
        return self.inner.keys()

    def snapshot_entries(self):
        return self.inner.snapshot_entries()

    def restore_entries(self, entries):
        return self.inner.restore_entries(entries)
