"""Topology executors.

Two execution engines share the same :class:`~repro.storm.topology.Topology`
model:

* :class:`LocalExecutor` — single-threaded and deterministic.  Tuples are
  processed in a fixed interleaving, so tests and the offline evaluation
  protocol get bit-for-bit reproducible runs.
* :class:`ThreadedExecutor` — one OS thread per worker with real bounded
  queues and blocking backpressure.  It is what runs the Figure-2 topology
  outside tests, and what the concurrency tests use to assert the
  fields-grouping single-writer invariant under true interleaving.

Both honour grouping semantics identically: a tuple emitted on
``(source, stream)`` is delivered to every subscribed bolt, to the worker(s)
chosen by that edge's grouping.

Both executors optionally run under a
:class:`~repro.reliability.Supervisor`: when a bolt raises, the failed
worker is torn down, recreated from its component factory, and the same
tuple is retried — bounded restarts with backoff, so topologies survive
transient faults without losing delivered tuples.  Only when the restart
budget is exhausted does the executor fall back to its configured failure
mode (``fail_fast`` abort, or drop the tuple).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ComponentError
from .metrics import TopologyMetrics
from .topology import Bolt, Collector, ComponentContext, Spout, Topology
from .tuples import StreamTuple

if TYPE_CHECKING:  # imported lazily to avoid a storm <-> reliability cycle
    from ..obs import Observability
    from ..reliability.supervisor import Supervisor

_POLL_INTERVAL = 0.001


@dataclass(frozen=True, slots=True)
class _Delivery:
    """A tuple addressed to one worker of one bolt."""

    target: str
    worker: int
    tup: StreamTuple


class _ExecutorBase:
    """Shared wiring: instantiate workers, route emissions, run hooks."""

    def __init__(
        self,
        topology: Topology,
        fail_fast: bool = True,
        supervisor: "Supervisor | None" = None,
        obs: "Observability | None" = None,
    ) -> None:
        self.topology = topology
        self.fail_fast = fail_fast
        self.supervisor = supervisor
        self.obs = obs
        self.metrics = TopologyMetrics(obs.registry if obs is not None else None)
        # Durations are measured on the bundle's perf clock so a
        # deterministic Observability yields deterministic latencies.
        self._now = obs.perf_clock.now if obs is not None else time.perf_counter
        self._spout_workers: list[tuple[str, int, Spout]] = []
        self._bolt_workers: dict[tuple[str, int], Bolt] = {}
        self._opened = False

    def _instantiate(self) -> None:
        """Create and initialise one component instance per worker."""
        if self._opened:
            return
        for name in self.topology.components:
            # Every component reports, even one that never sees a tuple.
            self.metrics.component(name)
        for spec in self.topology.spouts:
            for worker in range(spec.parallelism):
                spout = spec.factory()
                spout.open(ComponentContext(spec.name, worker, spec.parallelism))
                self._spout_workers.append((spec.name, worker, spout))
        for spec in self.topology.bolts:
            for worker in range(spec.parallelism):
                bolt = spec.factory()
                bolt.prepare(ComponentContext(spec.name, worker, spec.parallelism))
                self._bolt_workers[(spec.name, worker)] = bolt
        self._opened = True

    def _shutdown(self) -> None:
        for _, _, spout in self._spout_workers:
            spout.close()
        for bolt in self._bolt_workers.values():
            bolt.cleanup()

    def _route(self, source: str, tup: StreamTuple) -> list[_Delivery]:
        """Resolve the deliveries for one emitted tuple."""
        deliveries: list[_Delivery] = []
        for target, grouping in self.topology.targets(source, tup.stream):
            parallelism = self.topology.components[target].parallelism
            for worker in grouping.select(tup, parallelism):
                deliveries.append(_Delivery(target, worker, tup))
        return deliveries

    def _restart_bolt(self, name: str, worker: int) -> Bolt:
        """Replace one failed bolt worker with a fresh factory instance."""
        old = self._bolt_workers[(name, worker)]
        try:
            old.cleanup()
        except Exception:  # noqa: BLE001 - the worker is already broken
            pass
        spec = self.topology.components[name]
        bolt = spec.factory()
        bolt.prepare(ComponentContext(name, worker, spec.parallelism))
        self._bolt_workers[(name, worker)] = bolt
        self.metrics.component(name).record_restart()
        return bolt

    def _process_one(self, delivery: _Delivery) -> list[_Delivery]:
        """Run one bolt invocation; return the downstream deliveries.

        Under a supervisor, a failing worker is restarted and the tuple is
        retried until it succeeds or the worker's restart budget runs out —
        at-least-once execution of the bolt body.  Each attempt gets a
        fresh collector, so emissions from a failed attempt are discarded.
        """
        bolt = self._bolt_workers[(delivery.target, delivery.worker)]
        component = self.metrics.component(delivery.target)
        while True:
            collector = Collector()
            started = self._now()
            try:
                bolt.process(delivery.tup, collector)
                break
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                component.record_failure()
                if self.supervisor is not None and self.supervisor.should_restart(
                    delivery.target, delivery.worker, exc
                ):
                    bolt = self._restart_bolt(delivery.target, delivery.worker)
                    continue
                if self.fail_fast:
                    raise ComponentError(delivery.target, exc) from exc
                return []
        component.record_processed(delivery.worker, self._now() - started)
        out: list[_Delivery] = []
        for emitted in collector.drain():
            component.record_emit()
            out.extend(self._route(delivery.target, emitted))
        return out


class LocalExecutor(_ExecutorBase):
    """Deterministic in-process executor.

    Spout workers are polled round-robin; every emission is routed and
    processed breadth-first before the next spout poll, so the pipeline is
    fully drained between source tuples.  That matches the at-most-one
    in-flight-action semantics the offline replay protocol needs.
    """

    def run(self, max_tuples: int | None = None) -> TopologyMetrics:
        """Run until every spout is exhausted (or ``max_tuples`` source
        tuples have been consumed); return the collected metrics."""
        self._instantiate()
        try:
            live = deque(self._spout_workers)
            consumed = 0
            while live:
                if max_tuples is not None and consumed >= max_tuples:
                    break
                name, worker, spout = live.popleft()
                tup = spout.next_tuple()
                if tup is None:
                    continue  # exhausted: do not requeue
                live.append((name, worker, spout))
                consumed += 1
                self.metrics.component(name).record_emit()
                pending = deque(self._route(name, tup))
                while pending:
                    pending.extend(self._process_one(pending.popleft()))
            return self.metrics
        finally:
            self._shutdown()


class ThreadedExecutor(_ExecutorBase):
    """One thread per worker, bounded queues, graceful drain on exhaustion.

    An in-flight counter tracks every delivery from enqueue to completion;
    once all spouts are exhausted and the counter reaches zero the workers
    are stopped.  Component failures with ``fail_fast=True`` abort the run
    and re-raise from :meth:`run`.

    A full inbound queue blocks the producer until there is space,
    propagating backpressure up to the spout.  The wait is interrupted by
    a run abort, so a failed run cannot stall a spout forever; deliveries
    dropped that way, or drained at shutdown, are counted per component
    as ``shed`` in :class:`~repro.storm.metrics.TopologyMetrics`, alongside
    a queue-depth gauge/high-water mark sampled at every enqueue.
    """

    def __init__(
        self,
        topology: Topology,
        fail_fast: bool = True,
        queue_size: int = 10_000,
        supervisor: "Supervisor | None" = None,
        obs: "Observability | None" = None,
    ) -> None:
        super().__init__(
            topology, fail_fast=fail_fast, supervisor=supervisor, obs=obs
        )
        self._queue_size = queue_size
        self._queues: dict[tuple[str, int], queue.Queue] = {}
        self._inflight = 0
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._error: BaseException | None = None

    def _shed(self, delivery: _Delivery) -> None:
        """Account one dropped delivery: shed counter + in-flight release."""
        self.metrics.component(delivery.target).record_shed()
        self._done_one()

    def _enqueue(self, delivery: _Delivery) -> None:
        q = self._queues[(delivery.target, delivery.worker)]
        with self._cond:
            self._inflight += 1
        while True:
            try:
                q.put(delivery, timeout=_POLL_INTERVAL)
                break
            except queue.Full:
                if self._stop.is_set():
                    # Run is aborting: don't stall the producer forever.
                    self._shed(delivery)
                    return
        self.metrics.component(delivery.target).record_queue_depth(q.qsize())

    def _done_one(self) -> None:
        with self._cond:
            self._inflight -= 1
            if self._inflight == 0:
                self._cond.notify_all()

    def _spout_loop(self, name: str, spout: Spout) -> None:
        component = self.metrics.component(name)
        try:
            while not self._stop.is_set():
                tup = spout.next_tuple()
                if tup is None:
                    return
                component.record_emit()
                for delivery in self._route(name, tup):
                    self._enqueue(delivery)
        except Exception as exc:  # noqa: BLE001 - isolate spout failures
            component.record_failure()
            self._fail(ComponentError(name, exc))

    def _bolt_loop(self, key: tuple[str, int]) -> None:
        q = self._queues[key]
        while True:
            try:
                delivery = q.get(timeout=_POLL_INTERVAL)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            if delivery is None:  # sentinel
                return
            try:
                for child in self._process_one(delivery):
                    self._enqueue(child)
            except ComponentError as exc:
                self._fail(exc)
            finally:
                self._done_one()

    def _fail(self, exc: BaseException) -> None:
        if self.fail_fast:
            with self._cond:
                if self._error is None:
                    self._error = exc
                self._stop.set()
                self._cond.notify_all()

    def run(self, timeout: float | None = None) -> TopologyMetrics:
        """Run to exhaustion (or ``timeout`` seconds); return metrics."""
        self._instantiate()
        for spec in self.topology.bolts:
            for worker in range(spec.parallelism):
                self._queues[(spec.name, worker)] = queue.Queue(self._queue_size)

        bolt_threads = [
            threading.Thread(target=self._bolt_loop, args=(key,), daemon=True)
            for key in self._queues
        ]
        spout_threads = [
            threading.Thread(
                target=self._spout_loop, args=(name, spout), daemon=True
            )
            for name, _, spout in self._spout_workers
        ]
        for thread in bolt_threads + spout_threads:
            thread.start()

        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            for thread in spout_threads:
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                thread.join(timeout=remaining)
            with self._cond:
                while self._inflight > 0 and self._error is None:
                    remaining = (
                        None
                        if deadline is None
                        else max(0.0, deadline - time.monotonic())
                    )
                    if remaining == 0.0:
                        break
                    self._cond.wait(timeout=remaining or _POLL_INTERVAL)
        finally:
            self._stop.set()
            # Deliver the stop sentinel without ever blocking: a full queue
            # at shutdown (e.g. after a fail-fast abort with queue_size=1)
            # used to deadlock the blocking put(None) here forever.  Drain
            # stale deliveries to make room instead — the run is over, so
            # they are accounted as shed.
            for key, q in self._queues.items():
                while True:
                    try:
                        q.put_nowait(None)
                        break
                    except queue.Full:
                        try:
                            stale = q.get_nowait()
                        except queue.Empty:
                            continue  # consumer raced us; retry the put
                        if stale is not None:
                            self._shed(stale)
            for thread in bolt_threads:
                thread.join(timeout=1.0)
            self._shutdown()
        if self._error is not None:
            raise self._error
        return self.metrics
