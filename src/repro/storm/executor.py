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

Both fail one way: a bolt exception counts as ``failed``, aborts the run and
is raised from ``run()`` as a :class:`~repro.errors.ComponentError` naming
the bolt.  No delivery of an aborted run goes uncounted: each delivery the
run routed to a bolt ends as ``processed``, ``failed`` or ``shed`` — shed
being whatever was still pending or queued when the run stopped.
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

if TYPE_CHECKING:
    from ..obs import Observability

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
        self, topology: Topology, obs: "Observability | None" = None
    ) -> None:
        self.topology = topology
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

    def _process_one(self, delivery: _Delivery) -> list[_Delivery]:
        """Run one bolt invocation; return the downstream deliveries.

        A bolt exception is counted as a failure and re-raised as a
        :class:`~repro.errors.ComponentError`; what the bolt emitted before
        raising is discarded.
        """
        bolt = self._bolt_workers[(delivery.target, delivery.worker)]
        component = self.metrics.component(delivery.target)
        collector = Collector()
        started = self._now()
        try:
            bolt.process(delivery.tup, collector)
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            component.record_failure()
            raise ComponentError(delivery.target, exc) from exc
        component.record_processed(self._now() - started)
        out: list[_Delivery] = []
        for emitted in collector.drain():
            component.record_emit()
            out.extend(self._route(delivery.target, emitted))
        return out

    def _shed(self, delivery: _Delivery) -> None:
        """Account one delivery the run stopped before processing."""
        self.metrics.component(delivery.target).record_shed()


class LocalExecutor(_ExecutorBase):
    """Deterministic in-process executor.

    Spout workers are polled round-robin; every emission is routed and
    processed breadth-first before the next spout poll, so the pipeline is
    fully drained between source tuples.  That matches the at-most-one
    in-flight-action semantics the offline replay protocol needs.
    """

    def run(self) -> TopologyMetrics:
        """Run until every spout is exhausted; return the collected
        metrics.  A bolt exception aborts the run: the deliveries still
        pending are counted as shed and the error is raised."""
        self._instantiate()
        pending: deque[_Delivery] = deque()
        try:
            live = deque(self._spout_workers)
            while live:
                name, worker, spout = live.popleft()
                tup = spout.next_tuple()
                if tup is None:
                    continue  # exhausted: do not requeue
                live.append((name, worker, spout))
                self.metrics.component(name).record_emit()
                pending.extend(self._route(name, tup))
                while pending:
                    pending.extend(self._process_one(pending.popleft()))
            return self.metrics
        finally:
            for delivery in pending:
                self._shed(delivery)
            self._shutdown()


class ThreadedExecutor(_ExecutorBase):
    """One thread per worker, bounded queues, graceful drain on exhaustion.

    An in-flight counter tracks every delivery from enqueue to completion;
    once all spouts are exhausted and the counter reaches zero the run is
    stopped.  A component failure also stops the run, and :meth:`run`
    re-raises it after the threads are joined.

    A full inbound queue blocks the producer until there is space,
    propagating backpressure up to the spout.  Once the run is stopping no
    worker takes a new delivery: whatever is enqueued after the stop, or
    still queued after the threads are joined, is counted per component as
    ``shed`` in :class:`~repro.storm.metrics.TopologyMetrics`, alongside a
    queue-depth gauge/high-water mark sampled at every enqueue.
    """

    def __init__(
        self,
        topology: Topology,
        queue_size: int = 10_000,
        obs: "Observability | None" = None,
    ) -> None:
        super().__init__(topology, obs=obs)
        self._queue_size = queue_size
        self._queues: dict[tuple[str, int], queue.Queue] = {}
        self._inflight = 0
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._error: BaseException | None = None

    def _shed(self, delivery: _Delivery) -> None:
        super()._shed(delivery)
        self._done_one()

    def _enqueue(self, delivery: _Delivery) -> None:
        q = self._queues[(delivery.target, delivery.worker)]
        with self._cond:
            self._inflight += 1
        while not self._stop.is_set():
            try:
                q.put(delivery, timeout=_POLL_INTERVAL)
            except queue.Full:
                continue
            self.metrics.component(delivery.target).record_queue_depth(q.qsize())
            return
        self._shed(delivery)

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
        while not self._stop.is_set():
            try:
                delivery = q.get(timeout=_POLL_INTERVAL)
            except queue.Empty:
                continue
            if self._stop.is_set():
                self._shed(delivery)
                return
            try:
                for child in self._process_one(delivery):
                    self._enqueue(child)
            except ComponentError as exc:
                self._fail(exc)
            finally:
                self._done_one()

    def _fail(self, exc: BaseException) -> None:
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
            # Every thread polls the stop flag, so none blocks for long;
            # once all are joined nothing can enqueue, and what is left in
            # a queue was never taken: the run is over, so it is shed.
            for thread in spout_threads + bolt_threads:
                thread.join(timeout=1.0)
            for q in self._queues.values():
                while True:
                    try:
                        self._shed(q.get_nowait())
                    except queue.Empty:
                        break
            self._shutdown()
        if self._error is not None:
            raise self._error
        return self.metrics
