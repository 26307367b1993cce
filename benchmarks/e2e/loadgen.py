"""Single-process asyncio HTTP load generator: due-time, keep-alive, bounded.

Written for the benchmark instead of reusing ``repro.serving.httpload``:
that generator times a request from when it was *sent*, opens a socket per
request and drops non-2xx answers from its percentiles.  Here

* an **open-loop** phase follows an absolute schedule: operation *i* is
  due at ``start + due_i`` whatever the server does, is handed to the
  first free of ``C`` keep-alive connections, and its latency is timed
  **from the due time** — so a stall is paid by every request it delays;
* a **closed-loop** phase runs ``C`` clients back to back, each sending
  its next operation when the previous answer has arrived;
* every operation is kept, failed ones included: a non-2xx status, a
  reset, a timeout or an answer the workload's validator rejects is a
  failed operation, counted against the number attempted.

The generator reports its own lag separately from the server's:
``sched_late`` is due → queued (the generator's event loop was busy) and
``conn_wait`` is queued → a free connection took it (back-pressure from
the server, already inside every latency).  A run whose median
``sched_late`` exceeds :data:`MAX_MEDIAN_SCHED_LATE_S` measured the
generator, not the server, and is void.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from stats import percentile

#: A run is void when the generator's own median lag exceeds this.
MAX_MEDIAN_SCHED_LATE_S = 0.001

#: The event loop's selector rounds timeouts *up* to whole milliseconds, so
#: a timer fires up to 1 ms late.  The scheduler therefore aims this much
#: early and yields to the loop until the due time; its median lag drops
#: from ~0.5 ms to a few microseconds for at most 0.6 ms of spinning per
#: operation.
_TIMER_SLACK_S = 0.0006

#: An operation unanswered for this long is a failed operation.
REQUEST_TIMEOUT_S = 5.0


def encode_request(method: str, path: str, doc: dict | None = None) -> bytes:
    """One HTTP/1.1 request, encoded ahead of the timed region."""
    body = b"" if doc is None else json.dumps(
        doc, separators=(",", ":")
    ).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


@dataclass(slots=True)
class Op:
    """One operation to send.  ``due`` is seconds from the phase start."""

    kind: str
    payload: bytes
    due: float = 0.0
    expect: Any = None


@dataclass(slots=True)
class Result:
    """What happened to one :class:`Op` (all times ``perf_counter``)."""

    op: Op
    due_at: float
    queued_at: float
    taken_at: float = 0.0
    sent_at: float = 0.0
    done_at: float = 0.0
    status: int = 0
    doc: Any = None
    ok: bool = False
    error: str | None = None

    @property
    def latency(self) -> float:
        """Due time → answer: what a user of an open system waits."""
        return self.done_at - self.due_at

    @property
    def service(self) -> float:
        """Sent → answer: the server's share, without queueing here."""
        return self.done_at - self.sent_at


@dataclass
class PhaseLog:
    """Every result of one phase, with its wall-clock window."""

    name: str
    started: float = 0.0
    ended: float = 0.0
    results: list[Result] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.ended - self.started

    def of(self, kind: str) -> list[Result]:
        return [r for r in self.results if r.op.kind == kind]

    def latencies_ms(self, kind: str) -> list[float]:
        """Latency of every *answered* op; failures are counted, not timed."""
        return [r.latency * 1e3 for r in self.of(kind) if r.ok]

    def rate(self, kind: str) -> float:
        """Successful operations of ``kind`` per second of the phase."""
        done = sum(1 for r in self.of(kind) if r.ok)
        return done / self.seconds if self.seconds > 0 else 0.0

    def attempted(self) -> int:
        return len(self.results)

    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def sched_late_ms(self) -> list[float]:
        return [(r.queued_at - r.due_at) * 1e3 for r in self.results]

    def conn_wait_ms(self) -> list[float]:
        return [
            (r.taken_at - r.queued_at) * 1e3
            for r in self.results
            if r.taken_at
        ]


Validator = Callable[[Op, int, Any], bool]


class LoadGenerator:
    """``connections`` keep-alive HTTP/1.1 connections to one server.

    Operations are queued with :meth:`call` and picked up by whichever
    connection is free first.  ``validate(op, status, doc)`` decides
    whether an answered operation counts as OK.

    ``single_writer`` names operation kinds that must never be in flight
    twice: they get a lane of their own — one connection that serves only
    them — and the other connections serve everything else.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connections: int,
        validate: Validator,
        timeout: float = REQUEST_TIMEOUT_S,
        single_writer: frozenset[str] = frozenset(),
    ) -> None:
        self.host = host
        self.port = port
        self.validate = validate
        self.timeout = timeout
        # One connection is trivially a single writer: no lane needed.
        self.single_writer = single_writer if connections > 1 else frozenset()
        #: Connections serving the shared queue (all, or all but the lane).
        self.connections = connections - (1 if self.single_writer else 0)
        #: Sent -> answered seconds of every answered op, summed per kind
        #: (the client side of the gateway layer's ``http_s``).
        self.service_s: dict[str, float] = {}
        self._queue: asyncio.Queue = asyncio.Queue()
        self._lane: asyncio.Queue = asyncio.Queue()
        self._workers: list[asyncio.Task] = []

    async def open(self) -> None:
        queues = [self._queue] * self.connections
        if self.single_writer:
            queues.append(self._lane)
        for queue in queues:
            reader, writer = await asyncio.open_connection(
                self.host, self.port
            )
            self._workers.append(
                asyncio.create_task(self._connection(queue, reader, writer))
            )

    async def close(self) -> None:
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []

    # -- one connection --------------------------------------------------

    async def _connection(
        self,
        queue: asyncio.Queue,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        clock = time.perf_counter
        try:
            while True:
                result, future = await queue.get()
                result.taken_at = clock()
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection(
                            self.host, self.port
                        )
                    result.sent_at = clock()
                    writer.write(result.op.payload)
                    status, doc, keep = await asyncio.wait_for(
                        _read_response(reader), self.timeout
                    )
                    result.done_at = clock()
                    result.status, result.doc = status, doc
                    kind = result.op.kind
                    self.service_s[kind] = (
                        self.service_s.get(kind, 0.0) + result.service
                    )
                    result.ok = bool(self.validate(result.op, status, doc))
                    if not result.ok:
                        result.error = f"rejected answer (status {status})"
                    if not keep:
                        writer.close()
                        writer = None
                except (
                    OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ValueError,
                ) as exc:
                    # Reset, timeout or an unparsable answer: the operation
                    # failed; the connection is reopened for the next one.
                    result.done_at = clock()
                    result.error = f"{type(exc).__name__}: {exc}"
                    if writer is not None:
                        writer.close()
                    writer = None
                future.set_result(result)
        finally:
            if writer is not None:
                writer.close()

    def submit(self, op: Op, due_at: float) -> asyncio.Future:
        """Queue ``op`` now; the future resolves to its :class:`Result`."""
        future = asyncio.get_running_loop().create_future()
        result = Result(op=op, due_at=due_at, queued_at=time.perf_counter())
        queue = self._lane if op.kind in self.single_writer else self._queue
        queue.put_nowait((result, future))
        return future

    async def call(self, op: Op) -> Result:
        """Send one operation that is due now and wait for its result."""
        return await self.submit(op, time.perf_counter())

    # -- phases ----------------------------------------------------------

    async def open_loop(
        self,
        name: str,
        ops: Sequence[Op],
        seconds: float,
        side_tasks: Iterable[Callable[[float], Any]] = (),
    ) -> PhaseLog:
        """Send ``ops`` (sorted by ``due``) on their absolute schedule.

        ``side_tasks`` are coroutine functions ``task(phase_start)`` run
        alongside the schedule (the freshness probes); the phase ends when
        every operation has an outcome and every side task has returned.
        """
        log = PhaseLog(name)
        clock = time.perf_counter
        log.started = start = clock()
        sides = [asyncio.create_task(task(start)) for task in side_tasks]
        futures = []
        for i, op in enumerate(ops):
            due_at = start + op.due
            delay = due_at - clock()
            if delay > _TIMER_SLACK_S:
                await asyncio.sleep(delay - _TIMER_SLACK_S)
            elif i % 16 == 0:
                # Behind schedule: still let the connections run.
                await asyncio.sleep(0)
            while clock() < due_at:
                await asyncio.sleep(0)
            futures.append(self.submit(op, due_at))
        remaining = start + seconds - clock()
        if remaining > 0:
            await asyncio.sleep(remaining)
        log.results = list(await asyncio.gather(*futures))
        await asyncio.gather(*sides)
        log.ended = max(clock(), start + seconds)
        return log

    async def closed_loop(
        self,
        name: str,
        next_op: Callable[[], Op],
        seconds: float,
        clients: int | None = None,
    ) -> PhaseLog:
        """``clients`` callers (default: one per shared connection), each
        sending its next operation when the previous answer has arrived."""
        log = PhaseLog(name)
        clock = time.perf_counter
        log.started = clock()
        deadline = log.started + seconds

        async def client() -> None:
            while clock() < deadline:
                log.results.append(await self.call(next_op()))

        await asyncio.gather(
            *(client() for _ in range(clients or self.connections))
        )
        log.ended = clock()
        return log


async def _read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, Any, bool]:
    """Parse one HTTP/1.1 response: ``(status, json document, keep-alive)``."""
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head[9:12])
    lowered = head.lower()
    at = lowered.find(b"content-length:")
    if at < 0:
        raise ValueError("response without Content-Length")
    length = int(lowered[at + 15: lowered.index(b"\r\n", at)])
    body = await reader.readexactly(length) if length else b""
    keep = b"connection: close" not in lowered
    return status, (json.loads(body) if body else None), keep


def void_reason(logs: Iterable[PhaseLog]) -> str | None:
    """Why the open-loop phases in ``logs`` void the run, or ``None``."""
    for log in logs:
        late = log.sched_late_ms()
        if late and percentile(late, 50.0) > MAX_MEDIAN_SCHED_LATE_S * 1e3:
            return (
                f"phase {log.name}: median scheduling lag "
                f"{percentile(late, 50.0):.3f} ms exceeds "
                f"{MAX_MEDIAN_SCHED_LATE_S * 1e3:.1f} ms"
            )
    return None
