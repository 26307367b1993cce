"""Async HTTP serving gateway — the system's network face (§4.1, §6.2).

Every layer built so far — router, admission control, breakers, the
live trainer — is reached by in-process function calls.  The
paper's deployment is a *service*: "handling millions of user requests
every day, with latency of milliseconds" arrives over sockets.
:class:`ServingGateway` is that boundary, a dependency-light asyncio
HTTP/1.1 front-end over :class:`~repro.serving.router.RequestRouter`:

* ``POST /recommend`` — serve one recommendation request;
* ``POST /ingest``   — feed one user action into the live trainer;
* ``GET  /metrics``  — the schema-versioned
  :meth:`~repro.obs.MetricsRegistry.to_json` document;
* ``GET  /healthz``  — liveness + circuit-breaker state;
* ``GET  /snapshot`` — the router's per-scenario counters plus the
  gateway's own connection statistics.

**One model lane.** Model work runs on one single-thread lane; sockets,
parsing and the gateway's counters stay on the event loop's thread.
``/recommend`` (:meth:`RequestRouter.handle`) and ``/ingest``
(``observe``) run on it one call at a time, in arrival order.  So each
key has one writer (paper §5), the WAL order is the apply order that
recovery replays, and every response is computed on the state after
some prefix of the WAL.  A request's ``deadline_ms`` counts from the
moment the gateway has parsed it: the router gets what is left after
the request's wait for the lane.

**Overload semantics on the wire.**  The router's outcome enum maps onto
HTTP statuses faithfully (DESIGN.md "Serving over HTTP"):

=====================  ======================================
router outcome         HTTP response
=====================  ======================================
``OK``                 ``200`` + recommendations
``DEGRADED``           ``200`` + ``X-Repro-Degraded: 1``
``SHED``               ``503`` + ``Retry-After``
``DEADLINE_EXCEEDED``  ``504``
``ERROR``              ``500``
=====================  ======================================

Connections beyond ``max_connections`` are answered ``503`` and closed
before any routing work, the socket-level analogue of admission shedding.

Everything here is standard-library asyncio: no aiohttp/FastAPI import,
so the gateway runs wherever the rest of the repo does.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Awaitable, Callable

from ..data.schema import ActionType, UserAction
from ..errors import DataError
from ..obs.registry import Children
from .router import Outcome, RecRequest, RecResponse, RequestRouter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability
    from ..reliability.overload import CircuitBreaker

__all__ = [
    "GatewayConfig",
    "ServingGateway",
]

#: Canonical reason phrases for the statuses the gateway emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Upper bound on one request's header block, defensive.
_MAX_HEADER_BYTES = 16 * 1024
#: Upper bound on one request's body; larger bodies get ``413``.
_MAX_BODY_BYTES = 64 * 1024
#: ``Retry-After`` seconds on every ``503`` the gateway sends.
_RETRY_AFTER_SECONDS = "1"
#: How long a connection the gateway closes is drained first (see
#: :func:`_close`).
_LINGER_SECONDS = 1.0


@dataclass(frozen=True, slots=True)
class GatewayConfig:
    """Tunables of one :class:`ServingGateway`.

    ``deadline_ms`` is the default per-request latency budget stamped on
    requests that do not carry their own ``deadline_ms`` field;
    ``None`` disables the default.  ``max_connections`` bounds
    concurrently open sockets; excess connections get an immediate
    ``503`` + ``Retry-After`` and are closed.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read the bound port off the gateway
    max_connections: int = 256
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {self.max_connections}"
            )
        if self.deadline_ms is not None and self.deadline_ms < 0:
            raise ValueError(
                f"deadline_ms must be >= 0, got {self.deadline_ms}"
            )


@dataclass(slots=True)
class _HttpRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        # Connection options are case-insensitive tokens (RFC 9110 §7.6.1).
        options = self.headers.get("connection", "").lower().split(",")
        return "close" not in {option.strip() for option in options}


class _HttpError(Exception):
    """Abort the current request with a specific status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(reader: asyncio.StreamReader) -> _HttpRequest | None:
    """Parse one HTTP/1.1 request; ``None`` on clean EOF before a request."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client closed between requests — normal
        raise _HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise _HttpError(413, "request head too large") from exc
    if len(head) > _MAX_HEADER_BYTES:
        raise _HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise _HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header line: {line!r}")
        name = name.strip().lower()
        if name == "content-length" and name in headers:
            raise _HttpError(400, "more than one Content-Length")
        headers[name] = value.strip()
    # Bodies are framed by one Content-Length of plain digits: ``int()``
    # would also take "+17" and "1_7", and a chunked body left unread
    # would be parsed as the next request.
    if "transfer-encoding" in headers:
        raise _HttpError(501, "Transfer-Encoding is not supported")
    raw_length = headers.get("content-length", "0")
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _HttpError(400, f"bad Content-Length: {raw_length!r}")
    length = int(raw_length)
    if length > _MAX_BODY_BYTES:
        raise _HttpError(413, f"body of {length} bytes exceeds limit")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise _HttpError(400, "truncated request body") from exc
    # Strip any query string — endpoints here take parameters in the body.
    path = target.split("?", 1)[0]
    return _HttpRequest(method=method, path=path, headers=headers, body=body)


async def _close(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Half-close a connection, discard what the client still sends until
    it closes (at most ``_LINGER_SECONDS``), then close it.  Closing with
    unread bytes would reset the connection, and the reset can reach the
    client before it has read the reply or sent the rest of its request.
    """

    async def discard() -> None:
        while await reader.read(_MAX_BODY_BYTES):
            pass

    try:
        writer.write_eof()
        await asyncio.wait_for(discard(), _LINGER_SECONDS)
    except (asyncio.TimeoutError, ConnectionError, OSError):
        pass
    finally:
        writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # client went away mid-close
        pass


def _response_bytes(
    status: int,
    payload: dict,
    extra_headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body


def _string(doc: dict, name: str) -> str:
    """``doc[name]``, which must be a JSON string: ``str()`` of a null or
    an object would serve or train a user named ``"None"``."""
    value = doc[name]
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {json.dumps(value)}")
    return value


def _number(value: object, name: str) -> float:
    """``value`` of field ``name``, which must be a JSON number: ``float()``
    would read ``true`` as 1.0 (a 1 ms budget for ``deadline_ms``) and the
    string ``"12.5"`` as 12.5."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal past float range
        raise ValueError(f"{name} is out of range") from exc


def _parse_action(doc: dict) -> UserAction:
    """Build a :class:`UserAction` from an ``/ingest`` JSON document."""
    try:
        action_type = ActionType.parse(str(doc["action"]))
        return UserAction(
            timestamp=_number(doc["timestamp"], "timestamp"),
            user_id=_string(doc, "user_id"),
            video_id=_string(doc, "video_id"),
            action=action_type,
            view_time=_number(doc.get("view_time", 0.0), "view_time"),
        )
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise _HttpError(400, f"bad action: {exc}") from exc


class ServingGateway:
    """Asyncio HTTP server over a :class:`RequestRouter`.

    ``observe`` is the live-training sink ``POST /ingest`` feeds (e.g.
    ``RealtimeRecommender.observe``).  It runs on the model lane, the one
    thread that also serves every ``/recommend``: one call at a time, in
    arrival order; if it raises, that request gets ``500`` and the lane
    serves on.  ``obs`` must be the router's own
    bundle (``ValueError`` otherwise), so ``/snapshot`` and ``/metrics``
    read one registry; the gateway reports into it too
    (``gateway_http_requests_total``, ``gateway_open_connections``,
    ``gateway_connections_rejected_total``).
    ``breaker`` defaults to the router's own breaker and feeds
    ``/healthz``: the gateway is healthy while it is not open.

    Lifecycle: ``await start()`` binds the socket (``port`` then reports
    the real port when the config asked for 0); the lane's thread starts
    with the first request.  ``await stop()`` closes the socket and the
    open connections, shuts the lane down and closes :attr:`on_stop`.
    ``repro-serve`` drives it with :meth:`serve_forever` under
    ``asyncio.run``; ``benchmarks/e2e`` runs the CLI's composition in a
    child process.
    """

    def __init__(
        self,
        router: RequestRouter,
        *,
        observe: Callable[[UserAction], None],
        obs: "Observability",
        config: GatewayConfig | None = None,
        breaker: "CircuitBreaker | None" = None,
    ) -> None:
        if obs is not router.obs:
            raise ValueError(
                "the gateway's obs must be its router's: /snapshot and "
                "/metrics read one registry"
            )
        self.router = router
        self.config = config or GatewayConfig()
        self.observe = observe
        self.obs = obs
        self.breaker = breaker if breaker is not None else router.breaker
        # Its one worker thread starts with the first request.
        self._model = ThreadPoolExecutor(1, thread_name_prefix="gateway-model")
        #: What :meth:`stop` closes last: a durable composition registers
        #: its write-ahead log here.
        self.on_stop = ExitStack()
        self._server: asyncio.AbstractServer | None = None
        self._streams: set[asyncio.StreamWriter] = set()
        #: Every connection handler still running, until it has closed
        #: its connection: :meth:`stop` waits for them.
        self._handlers: set[asyncio.Task] = set()
        self._open_connections = 0
        self._ingested = 0
        self._http_counter = Children(
            obs.registry.counter(
                "gateway_http_requests_total",
                "HTTP requests served by the gateway, by path and status",
                labelnames=("path", "status"),
            )
        )
        self._conn_gauge = obs.registry.gauge(
            "gateway_open_connections",
            "Currently open gateway connections",
        )
        self._rejected_counter = obs.registry.counter(
            "gateway_connections_rejected_total",
            "Connections refused because max_connections was reached",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=max(_MAX_BODY_BYTES, _MAX_HEADER_BYTES) + 1024,
        )

    async def stop(self) -> None:
        """Close the socket and every open connection, wait (at most
        ``_LINGER_SECONDS``) for their handlers to finish, shut the model
        lane down, then close what :attr:`on_stop` holds.

        A handler still running when the event loop ends would be
        cancelled, and Python 3.11 logs that cancellation as an error."""
        if self._server is not None:
            self._server.close()
            streams = list(self._streams)
            for stream in streams:  # keep-alive connections outlive close()
                stream.close()
            await self._server.wait_closed()
            self._server = None
            for stream in streams:
                try:
                    await stream.wait_closed()
                except (ConnectionError, OSError):
                    pass
            if self._handlers:
                await asyncio.wait(self._handlers, timeout=_LINGER_SECONDS)
        await asyncio.to_thread(self._model.shutdown, cancel_futures=True)
        self.on_stop.close()

    @property
    def port(self) -> int:
        """The actually-bound port (resolves an ephemeral ``port=0``)."""
        if self._server is None:
            raise RuntimeError("gateway not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _track_connection(self, delta: int) -> int:
        self._open_connections += delta
        self._conn_gauge.set(self._open_connections)
        return self._open_connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        over_limit = self._track_connection(+1) > self.config.max_connections
        handler = asyncio.current_task()
        self._handlers.add(handler)
        self._streams.add(writer)
        try:
            if over_limit:
                # Socket-level shedding: answer and close before any routing.
                self._rejected_counter.inc()
                await self._finish(
                    writer,
                    _response_bytes(
                        503,
                        {"error": "too many connections"},
                        extra_headers={"Retry-After": _RETRY_AFTER_SECONDS},
                        keep_alive=False,
                    ),
                )
            else:
                await self._serve_connection(reader, writer)
        finally:
            self._track_connection(-1)
            try:
                await _close(reader, writer)
            finally:
                # Tracked until closed, so stop() ends a lingering close.
                self._streams.discard(writer)
                self._handlers.discard(handler)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await _read_request(reader)
            except _HttpError as exc:
                await self._finish(
                    writer,
                    _response_bytes(
                        exc.status, {"error": exc.message}, keep_alive=False
                    ),
                )
                return
            except (ConnectionError, OSError):
                return
            if request is None:
                return
            status, payload, extra = await self._dispatch(request)
            self._http_counter[request.path, str(status)].inc()
            try:
                await self._finish(
                    writer,
                    _response_bytes(
                        status,
                        payload,
                        extra_headers=extra,
                        keep_alive=request.keep_alive,
                    ),
                )
            except (ConnectionError, OSError):
                return
            if not request.keep_alive:
                return

    @staticmethod
    async def _finish(writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(data)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Endpoint dispatch
    # ------------------------------------------------------------------

    async def _dispatch(
        self, request: _HttpRequest
    ) -> tuple[int, dict, dict[str, str] | None]:
        routes: dict[
            tuple[str, str],
            Callable[[_HttpRequest], Awaitable[tuple[int, dict, dict | None]]],
        ] = {
            ("POST", "/recommend"): self._recommend,
            ("POST", "/ingest"): self._ingest,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/healthz"): self._healthz,
            ("GET", "/snapshot"): self._snapshot,
        }
        known_paths = {path for _, path in routes}
        handler = routes.get((request.method, request.path))
        if handler is None:
            if request.path in known_paths:
                return 405, {"error": f"method {request.method} not allowed"}, None
            return 404, {"error": f"no such endpoint: {request.path}"}, None
        try:
            return await handler(request)
        except _HttpError as exc:
            return exc.status, {"error": exc.message}, None
        except Exception as exc:  # noqa: BLE001 - service isolation boundary
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, None

    def _json_body(self, request: _HttpRequest) -> dict:
        try:
            doc = json.loads(request.body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(doc, dict):
            raise _HttpError(400, "JSON body must be an object")
        return doc

    async def _recommend(
        self, request: _HttpRequest
    ) -> tuple[int, dict, dict[str, str] | None]:
        doc = self._json_body(request)
        if "user_id" not in doc:
            raise _HttpError(400, "missing required field: user_id")
        deadline_ms = doc.get("deadline_ms", self.config.deadline_ms)
        n = doc.get("n", 10)
        try:
            if isinstance(n, bool) or not isinstance(n, int):
                raise TypeError(f"n must be an integer, got {json.dumps(n)}")
            rec_request = RecRequest(
                user_id=_string(doc, "user_id"),
                current_video=(
                    _string(doc, "current_video")
                    if doc.get("current_video") is not None
                    else None
                ),
                n=n,
                timestamp=(
                    _number(doc["timestamp"], "timestamp")
                    if doc.get("timestamp") is not None
                    else None
                ),
                deadline_seconds=(
                    _number(deadline_ms, "deadline_ms") / 1000.0
                    if deadline_ms is not None
                    else None
                ),
            )
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad request field: {exc}") from exc
        parsed = self.obs.perf_clock.now()
        response = await asyncio.get_running_loop().run_in_executor(
            self._model, self._serve, rec_request, parsed
        )
        return self._map_outcome(response)

    def _serve(self, request: RecRequest, parsed: float) -> RecResponse:
        """Serve ``request`` on the model lane, with the part of its
        budget that its wait for the lane since ``parsed`` left."""
        budget = request.deadline_seconds
        if budget is not None:
            waited = self.obs.perf_clock.now() - parsed
            left = max(0.0, budget - waited)
            request = replace(request, deadline_seconds=left)
        return self.router.handle(request)

    def _map_outcome(
        self, response: RecResponse
    ) -> tuple[int, dict, dict[str, str] | None]:
        """The router-outcome → HTTP-status contract (one place, tested)."""
        base = {
            "user_id": response.request.user_id,
            "scenario": response.request.scenario.value,
            "latency_ms": response.latency_seconds * 1000.0,
        }
        outcome = response.outcome
        if outcome is Outcome.SHED:
            base["error"] = "shed"
            if response.shed_reason is not None:
                base["reason"] = response.shed_reason
            return 503, base, {"Retry-After": _RETRY_AFTER_SECONDS}
        if outcome is Outcome.DEADLINE_EXCEEDED:
            base["error"] = "deadline exceeded"
            return 504, base, None
        if outcome is Outcome.ERROR:
            base["error"] = response.error or "internal error"
            return 500, base, None
        base["video_ids"] = list(response.video_ids)
        if outcome is Outcome.DEGRADED:
            return 200, base, {"X-Repro-Degraded": "1"}
        return 200, base, None

    async def _ingest(
        self, request: _HttpRequest
    ) -> tuple[int, dict, dict[str, str] | None]:
        action = _parse_action(self._json_body(request))
        await asyncio.get_running_loop().run_in_executor(
            self._model, self.observe, action
        )
        self._ingested += 1
        return 202, {"ingested": self._ingested}, None

    async def _metrics(
        self, request: _HttpRequest
    ) -> tuple[int, dict, dict[str, str] | None]:
        return 200, json.loads(self.obs.registry.to_json()), None

    async def _healthz(
        self, request: _HttpRequest
    ) -> tuple[int, dict, dict[str, str] | None]:
        breaker_state = (
            self.breaker.state.value if self.breaker is not None else None
        )
        healthy = breaker_state != "open"
        payload = {
            "status": "ok" if healthy else "degraded",
            "breaker": breaker_state,
            "open_connections": self._open_connections,
        }
        return (200 if healthy else 503), payload, None

    async def _snapshot(
        self, request: _HttpRequest
    ) -> tuple[int, dict, dict[str, str] | None]:
        payload = {
            "router": self.router.snapshot(),
            "gateway": {
                "open_connections": self._open_connections,
                "ingested": self._ingested,
                "rejected_connections": int(self._rejected_counter.value),
            },
        }
        return 200, payload, None
