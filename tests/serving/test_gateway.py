"""Tests for the asyncio HTTP serving gateway.

Everything here runs over real sockets on an ephemeral port — the point
of the gateway is the network boundary, so the tests exercise it through
``http.client`` rather than poking coroutine internals.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time

import pytest

from repro.clock import VirtualClock
from repro.obs import Observability
from repro.reliability import ActionWAL
from repro.reliability.overload import (
    FAILURE_THRESHOLD,
    AdmissionController,
    CircuitBreaker,
)
from repro.serving import (
    GatewayConfig,
    RecRequest,
    RequestCollector,
    RequestRouter,
    ServingGateway,
)
from repro.serving.router import MAX_N
from tests.support.gateway_thread import GatewayThread
from tests.support.obs import registry_total


class _Backend:
    """Deterministic recommender stub; optional per-user failures."""

    def __init__(self, fail_for=None, fail_always=False):
        self.fail_for = fail_for or set()
        self.fail_always = fail_always
        self.calls = []

    def recommend_ids(self, user_id, current_video=None, n=None, now=None):
        self.calls.append(user_id)
        if self.fail_always or user_id in self.fail_for:
            raise RuntimeError("backend exploded")
        return [f"rec{i}" for i in range(n or 10)]


def _request(
    port, method, path, body=None, host="127.0.0.1", timeout=10.0
):
    """One HTTP request via the stdlib client; returns (status, headers, doc)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(
            method,
            path,
            body=payload,
            headers={"Content-Type": "application/json"} if payload else {},
        )
        response = conn.getresponse()
        raw = response.read()
        doc = json.loads(raw) if raw else {}
        return response.status, dict(response.getheaders()), doc
    finally:
        conn.close()


def _router(backend, **kwargs):
    return RequestRouter(backend, obs=Observability.create(), **kwargs)


def _gateway(router, config=None, observe=None):
    return GatewayThread(
        ServingGateway(
            router,
            config=config or GatewayConfig(),
            observe=observe or (lambda action: None),
            obs=router.obs,
        )
    )


def _requests(router, outcome):
    return registry_total(
        router.obs.registry,
        "serving_requests_total",
        scenario="guess_you_like",
        outcome=outcome,
    )


class TestEndpoints:
    def test_recommend_ok(self):
        router = _router(_Backend())
        with _gateway(router) as server:
            status, headers, doc = _request(
                server.port, "POST", "/recommend", {"user_id": "u1", "n": 3}
            )
        assert status == 200
        assert doc["video_ids"] == ["rec0", "rec1", "rec2"]
        assert doc["scenario"] == "guess_you_like"
        assert "X-Repro-Degraded" not in headers

    def test_recommend_related_scenario(self):
        router = _router(_Backend())
        with _gateway(router) as server:
            status, _, doc = _request(
                server.port,
                "POST",
                "/recommend",
                {"user_id": "u1", "current_video": "v7"},
            )
        assert status == 200
        assert doc["scenario"] == "related_videos"

    def test_recommend_requires_user_id(self):
        router = _router(_Backend())
        with _gateway(router) as server:
            status, _, doc = _request(server.port, "POST", "/recommend", {})
        assert status == 400
        assert "user_id" in doc["error"]

    @pytest.mark.parametrize("n", [-3, 0, MAX_N + 1])
    def test_recommend_n_out_of_range_is_400(self, n):
        """A list length outside ``[1, MAX_N]`` never reaches the backend:
        a negative ``n`` used to be served as ``ids[:n]``, a huge one would
        score the whole catalog in ``"ann"`` mode."""
        backend = _Backend()
        with _gateway(_router(backend)) as server:
            status, _, doc = _request(
                server.port, "POST", "/recommend", {"user_id": "u1", "n": n}
            )
            ok, _, _ = _request(
                server.port, "POST", "/recommend", {"user_id": "u1", "n": MAX_N}
            )
        assert status == 400, doc
        assert "n must be in" in doc["error"]
        assert ok == 200
        assert backend.calls == ["u1"]

    @pytest.mark.parametrize(
        "bad",
        [
            {"timestamp": float("inf")},
            {"timestamp": float("nan")},
            {"deadline_ms": -1},
            {"deadline_ms": float("nan")},
            {"user_id": None},
            {"user_id": {"a": 1}},
            {"current_video": 7},
            {"n": 3.9},
            {"n": True},
            {"timestamp": True},
            {"timestamp": "12.5"},
            {"deadline_ms": True},
            {"deadline_ms": "5"},
            {"deadline_ms": [5]},
            {"timestamp": 10**400},
        ],
        ids=[
            "inf-time", "nan-time", "neg-deadline", "nan-deadline",
            "null-user", "object-user", "number-video", "float-n", "bool-n",
            "bool-time", "string-time", "bool-deadline", "string-deadline",
            "list-deadline", "huge-int-time",
        ],
    )
    def test_recommend_bad_time_or_deadline_is_400(self, bad):
        """``json.loads`` accepts ``Infinity`` and ``NaN``: an infinite
        ``now`` collapses every time-damped score (the list falls back to
        id order), and a negative or NaN budget is no budget at all.  Ids
        must be JSON strings and ``n`` a JSON integer: ``str(None)`` would
        serve the user ``"None"`` and ``int(3.9)`` three items."""
        backend = _Backend()
        with _gateway(_router(backend)) as server:
            status, _, doc = _request(
                server.port, "POST", "/recommend", {"user_id": "u1", **bad}
            )
        assert status == 400, doc
        assert "bad request field" in doc["error"]
        assert backend.calls == []

    def test_invalid_json_is_400(self):
        router = _router(_Backend())
        with _gateway(router) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            try:
                conn.request("POST", "/recommend", body="{not json")
                response = conn.getresponse()
                assert response.status == 400
            finally:
                conn.close()

    def test_unknown_path_404_wrong_method_405(self):
        router = _router(_Backend())
        with _gateway(router) as server:
            status_404, _, _ = _request(server.port, "GET", "/nope")
            status_405, _, _ = _request(server.port, "GET", "/recommend")
        assert status_404 == 404
        assert status_405 == 405

    def test_snapshot_reports_router_and_coalescing(self):
        router = _router(_Backend())
        with _gateway(router) as server:
            _request(server.port, "POST", "/recommend", {"user_id": "u1"})
            status, _, doc = _request(server.port, "GET", "/snapshot")
        assert status == 200
        assert doc["router"]["guess_you_like"]["requests"] == 1
        assert doc["coalescing"]["batches"] == 1
        assert doc["coalescing"]["requests"] == 1
        assert doc["gateway"]["rejected_connections"] == 0

    def test_metrics_serves_registry_document(self):
        router = _router(_Backend())
        with _gateway(router) as server:
            _request(server.port, "POST", "/recommend", {"user_id": "u1"})
            status, _, doc = _request(server.port, "GET", "/metrics")
        assert status == 200
        assert doc["schema_version"] == 1
        names = set(doc["metrics"])
        assert "serving_requests_total" in names
        assert "gateway_http_requests_total" in names
        assert "gateway_coalesced_batch_size" in names

    def test_ingest_feeds_observe(self):
        seen = []
        router = _router(_Backend())
        with _gateway(router, observe=seen.append) as server:
            status, _, doc = _request(
                server.port,
                "POST",
                "/ingest",
                {
                    "timestamp": 12.5,
                    "user_id": "u1",
                    "video_id": "v2",
                    "action": "click",
                },
            )
        assert status == 202
        assert doc["ingested"] == 1
        assert len(seen) == 1
        assert seen[0].user_id == "u1"
        assert seen[0].action.value == "click"

    def test_ingest_malformed_action_is_400(self):
        router = _router(_Backend())
        with _gateway(router, observe=lambda a: None) as server:
            status, _, doc = _request(
                server.port, "POST", "/ingest", {"user_id": "u1"}
            )
        assert status == 400

    @pytest.mark.parametrize(
        "bad",
        [
            {"user_id": "u\t1"},
            {"user_id": ""},
            {"video_id": "v\r2"},
            {"timestamp": float("nan")},
            {"view_time": "nan"},
            {"user_id": None},
            {"user_id": {"a": 1}},
            {"video_id": 7},
            {"timestamp": True},
            {"timestamp": "12.5"},
            {"view_time": True},
            {"view_time": "30"},
            {"view_time": None},
        ],
        ids=[
            "tab-in-user", "empty-user", "cr-in-video", "nan-time", "nan-view",
            "null-user", "object-user", "number-video", "bool-time",
            "string-time", "bool-view", "string-view", "null-view",
        ],
    )
    def test_ingest_bad_action_is_400_and_leaves_wal_untouched(
        self, bad, tmp_path
    ):
        """One bad ``/ingest`` body must not reach the write-ahead log: a
        record the log cannot read back stops a durable server's restart."""
        good = {
            "timestamp": 1.0,
            "user_id": "u1",
            "video_id": "v2",
            "action": "click",
        }
        body = {**good, **bad}
        with ActionWAL(tmp_path / "wal") as wal:
            with _gateway(_router(_Backend()), observe=wal.append) as server:
                status, _, doc = _request(server.port, "POST", "/ingest", body)
                assert status == 400, doc
                assert "bad action" in doc["error"]
                status, _, _ = _request(server.port, "POST", "/ingest", good)
                assert status == 202
        replayed = [action for _, action in ActionWAL(tmp_path / "wal").replay()]
        assert [(a.user_id, a.video_id) for a in replayed] == [("u1", "v2")]


class TestHealthz:
    def test_healthy_gateway_is_200(self):
        router = _router(_Backend())
        with _gateway(router) as server:
            status, _, doc = _request(server.port, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["breaker"] is None

    def test_open_breaker_flips_healthz_to_503(self):
        obs = Observability.create()
        breaker = CircuitBreaker(registry=obs.registry)
        router = RequestRouter(
            _Backend(fail_always=True), breaker=breaker, obs=obs
        )
        with _gateway(router) as server:
            # Trip the breaker through real traffic, then ask for health.
            for _ in range(FAILURE_THRESHOLD):
                _request(server.port, "POST", "/recommend", {"user_id": "u1"})
            status, _, doc = _request(server.port, "GET", "/healthz")
        assert status == 503
        assert doc["status"] == "degraded"
        assert doc["breaker"] == "open"


class TestSaturation:
    def test_concurrent_overload_is_200_or_503_on_the_wire(self):
        """Eight tokens and no refill (the bucket's clock stands still)
        against 24 concurrent clients: the bucket's verdict reaches every
        socket, and shedding is not ill health."""
        obs = Observability.create()
        admission = AdmissionController(
            rate=8, clock=VirtualClock(0.0), registry=obs.registry
        )
        router = RequestRouter(_Backend(), admission=admission, obs=obs)
        results = []

        def client(i, port):
            results.append(
                _request(port, "POST", "/recommend", {"user_id": f"u{i}"})
            )

        with _gateway(router) as server:
            clients = [
                threading.Thread(target=client, args=(i, server.port))
                for i in range(24)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30.0)
            health, _, _ = _request(server.port, "GET", "/healthz")

        ok = [r for r in results if r[0] == 200]
        shed = [r for r in results if r[0] == 503]
        assert len(ok) + len(shed) == len(results) == 24
        assert len(ok) == 8
        assert all(doc["video_ids"] for _, _, doc in ok)
        assert all(
            headers["Retry-After"] == "1" and doc["error"] == "shed"
            for _, headers, doc in shed
        )
        assert health == 200
        assert _requests(router, "shed") == 16


class TestConnectionLimit:
    def test_excess_connection_gets_503_and_close(self):
        router = _router(_Backend())
        config = GatewayConfig(max_connections=1)
        with _gateway(router, config=config) as server:
            first = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10.0
            )
            try:
                # Occupy the only slot with a live keep-alive connection.
                first.request(
                    "POST",
                    "/recommend",
                    body=json.dumps({"user_id": "u1"}),
                    headers={"Content-Type": "application/json"},
                )
                assert first.getresponse().read() is not None
                status, headers, doc = _request(server.port, "GET", "/healthz")
                assert status == 503
                assert "Retry-After" in headers
                assert doc["error"] == "too many connections"
            finally:
                first.close()
            # Slot freed: the same request now succeeds.
            status, _, _ = _request(server.port, "GET", "/healthz")
            assert status == 200
            _, _, snap = _request(server.port, "GET", "/snapshot")
            assert snap["gateway"]["rejected_connections"] == 1


    def test_a_refused_client_can_finish_sending_its_request(self):
        """The gateway half-closes a refused connection and discards the
        rest of its request until the client closes: bytes the client
        sends after the 503 do not reset the connection."""
        config = GatewayConfig(max_connections=1)
        with _gateway(_router(_Backend()), config=config) as server:
            address = ("127.0.0.1", server.port)
            with socket.create_connection(address, timeout=5.0) as first:
                first.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
                assert first.recv(4096).startswith(b"HTTP/1.1 200 ")
                with socket.create_connection(address, timeout=5.0) as late:
                    late.sendall(
                        b"POST /recommend HTTP/1.1\r\nHost: test\r\n"
                        b"Content-Length: 51\r\n\r\n"
                    )
                    reply = b""
                    while chunk := late.recv(4096):  # b"" at the half-close
                        reply += chunk
                    for _ in range(3):
                        time.sleep(0.05)
                        late.sendall(b'{"user_id": "u1"}')
        assert reply.startswith(b"HTTP/1.1 503 ")


class TestKeepAlive:
    def test_many_requests_on_one_connection(self):
        router = _router(_Backend())
        with _gateway(router) as server:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10.0
            )
            try:
                for i in range(5):
                    conn.request(
                        "POST",
                        "/recommend",
                        body=json.dumps({"user_id": f"u{i}"}),
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
            finally:
                conn.close()
        assert _requests(router, "ok") == 5

    @pytest.mark.parametrize("value", ["close", "Close", "keep-alive, CLOSE"])
    def test_connection_close_token_is_case_insensitive(self, value):
        """Connection options are case-insensitive (RFC 9110 §7.6.1): any
        spelling of ``close`` is answered ``Connection: close`` and the
        server closes the socket."""
        with _gateway(_router(_Backend())) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                sock.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                    b"Connection: " + value.encode() + b"\r\n\r\n"
                )
                reply = b""
                while chunk := sock.recv(4096):  # b"" once the server closes
                    reply += chunk
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nConnection: close\r\n" in reply


    def test_stop_closes_keep_alive_connections(self):
        """A connection idle between requests is closed by ``stop()``, not
        left open until the client leaves."""
        router = _router(_Backend())
        gateway = ServingGateway(
            router, observe=lambda action: None, obs=router.obs
        )

        async def scenario():
            await gateway.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            try:
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                await reader.readexactly(length)
                await gateway.stop()
                return head, await asyncio.wait_for(reader.read(), 5.0)
            finally:
                writer.close()
                await writer.wait_closed()

        head, after_stop = asyncio.run(scenario())
        assert head.startswith(b"HTTP/1.1 200 ")
        assert after_stop == b""  # end of stream: the server closed it


def _exchange(port, data):
    """Send raw bytes; return everything the server sends until it closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(data)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


class TestBodyFraming:
    """A body is framed by one ``Content-Length`` of plain digits; anything
    else is answered and the connection closed, so no byte of it can be
    read as the next request."""

    BODY = b'{"user_id": "u1"}'  # 17 bytes

    def _post(self, headers):
        backend = _Backend()
        with _gateway(_router(backend)) as server:
            reply = _exchange(
                server.port,
                b"POST /recommend HTTP/1.1\r\nHost: test\r\n"
                + headers
                + b"\r\n"
                + self.BODY,
            )
        assert reply.count(b"HTTP/1.1 ") == 1, reply
        assert b"\r\nConnection: close\r\n" in reply
        return reply, backend.calls

    def test_a_plain_length_is_served(self):
        reply, calls = self._post(
            b"Content-Length: 17\r\nConnection: close\r\n"
        )
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert calls == ["u1"]

    @pytest.mark.parametrize(
        "headers",
        [
            b"Content-Length: 1_7\r\n",
            b"Content-Length: +17\r\n",
            b"Content-Length: -17\r\n",
            b"Content-Length: 17, 17\r\n",
            b"Content-Length: \xb2\r\n",
            b"Content-Length: 17\r\nContent-Length: 17\r\n",
            b"Content-Length: 0\r\nContent-Length: 17\r\n",
        ],
        ids=[
            "underscore", "plus", "minus", "list", "superscript",
            "duplicate", "conflicting",
        ],
    )
    def test_a_bad_content_length_is_400(self, headers):
        reply, calls = self._post(headers)
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert calls == []

    def test_a_body_over_the_limit_is_413(self):
        reply, calls = self._post(b"Content-Length: 70000\r\n")
        assert reply.startswith(b"HTTP/1.1 413 "), reply
        assert calls == []

    @pytest.mark.parametrize(
        "headers",
        [
            b"Transfer-Encoding: chunked\r\n",
            b"Transfer-Encoding: chunked\r\nContent-Length: 17\r\n",
            b"Transfer-Encoding: identity\r\n",
        ],
        ids=["chunked", "chunked-and-length", "identity"],
    )
    def test_any_transfer_encoding_is_501(self, headers):
        reply, calls = self._post(headers)
        assert reply.startswith(b"HTTP/1.1 501 "), reply
        assert calls == []


class _RecordingRouter(RequestRouter):
    """Records each ``handle_many`` batch's size and the most calls ever
    running at once.  Each call waits for ``release``, then ``hold``
    seconds."""

    def __init__(self, hold=0.0):
        super().__init__(_Backend(), obs=Observability.create())
        self.hold = hold
        self.batches = []
        self.most_at_once = 0
        self.release = threading.Event()
        self._running = 0
        self._lock = threading.Lock()

    def handle_many(self, requests):
        with self._lock:
            self._running += 1
            self.most_at_once = max(self.most_at_once, self._running)
            self.batches.append(len(requests))
        try:
            self.release.wait(timeout=10.0)
            time.sleep(self.hold)
            return super().handle_many(requests)
        finally:
            with self._lock:
                self._running -= 1


class TestCollector:
    @staticmethod
    def _run(collector, scenario):
        """Run ``scenario()`` on a fresh loop, then close the collector."""

        async def main():
            try:
                return await scenario()
            finally:
                await collector.close()

        return asyncio.run(main())

    @staticmethod
    def _submit_all(collector, user_ids):
        return [
            asyncio.ensure_future(collector.submit(RecRequest(user_id)))
            for user_id in user_ids
        ]

    def test_a_lone_request_is_dispatched_without_a_timer(self):
        router = _RecordingRouter()
        router.release.set()
        collector = RequestCollector(router, batch_max=64)

        async def scenario():
            loop = asyncio.get_running_loop()

            def no_timer(*args, **kwargs):
                raise AssertionError("the collector armed a timer")

            loop.call_later = loop.call_at = no_timer
            try:
                return await collector.submit(RecRequest("u1"))
            finally:
                del loop.call_later, loop.call_at

        response = self._run(collector, scenario)
        assert response.ok
        assert router.batches == [1]

    def test_submits_in_one_tick_are_one_batch(self):
        router = _router(_Backend())
        collector = RequestCollector(router, batch_max=64)

        async def scenario():
            return await asyncio.gather(
                *(collector.submit(RecRequest(f"u{i}")) for i in range(8))
            )

        responses = self._run(collector, scenario)
        assert len(responses) == 8
        assert all(r.ok for r in responses)
        snap = collector.coalesce_snapshot()
        assert snap["batches"] == 1
        assert snap["requests"] == 8
        assert snap["mean_batch_size"] == 8.0

    def test_submits_during_a_batch_go_out_together_up_to_batch_max(self):
        """A group commit: the 70 requests that arrive while the first
        batch is served leave as soon as it finishes, 64 then 6."""
        router = _RecordingRouter()
        collector = RequestCollector(router, batch_max=64)

        async def scenario():
            (first,) = self._submit_all(collector, ["u0"])
            while not router.batches:
                await asyncio.sleep(0.001)
            rest = self._submit_all(collector, [f"u{i}" for i in range(1, 71)])
            await asyncio.sleep(0)
            router.release.set()
            return await asyncio.gather(first, *rest)

        responses = self._run(collector, scenario)
        assert [r.request.user_id for r in responses] == [
            f"u{i}" for i in range(71)
        ]
        assert router.batches == [1, 64, 6]
        assert collector.coalesce_snapshot()["max_batch_size"] == 64

    def test_a_submit_after_close_fails_instead_of_hanging(self):
        """A closed collector's lane takes no work: a late request gets
        the lane's error, and no thread starts to serve it."""
        router = _RecordingRouter()
        router.release.set()
        collector = RequestCollector(router, batch_max=64)

        async def scenario():
            await collector.close()
            with pytest.raises(RuntimeError, match="shutdown"):
                await asyncio.wait_for(
                    collector.submit(RecRequest("u1")), timeout=5.0
                )

        self._run(collector, scenario)
        assert router.batches == []
        assert not [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("gateway-read")
        ]

    def test_handle_many_calls_never_overlap(self):
        router = _RecordingRouter(hold=0.002)
        router.release.set()
        collector = RequestCollector(router, batch_max=64)

        async def client(i):
            for j in range(5):
                await asyncio.sleep(0.001 * ((i + j) % 3))
                await collector.submit(RecRequest(f"u{i}-{j}"))

        async def scenario():
            await asyncio.gather(*(client(i) for i in range(40)))

        self._run(collector, scenario)
        assert router.most_at_once == 1
        assert sum(router.batches) == 200
        assert len(router.batches) > 1

    def test_responses_match_requests_in_order(self):
        router = _router(_Backend(fail_for={"u1"}))
        collector = RequestCollector(router, batch_max=8)

        async def scenario():
            return await asyncio.gather(
                *(collector.submit(RecRequest(f"u{i}")) for i in range(3))
            )

        responses = self._run(collector, scenario)
        assert [r.request.user_id for r in responses] == ["u0", "u1", "u2"]
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok  # the failing user failed, others didn't

    @pytest.mark.parametrize("end", ["cancelled", "raised"])
    def test_a_cancelled_or_failed_batch_ends_every_request(self, end):
        """A batch the read lane cancels (shutting it down drops a call
        not yet started) or whose call raises ends each of its requests
        with that cancellation or exception; none waits forever."""
        collector = RequestCollector(_router(_Backend()), batch_max=64)

        async def scenario():
            loop = asyncio.get_running_loop()
            batches = []

            def held(executor, fn, *args):
                batches.append(loop.create_future())
                return batches[-1]

            loop.run_in_executor = held
            try:
                waiters = self._submit_all(collector, ["u0", "u1", "u2"])
                while not batches:
                    await asyncio.sleep(0)
                if end == "cancelled":
                    batches[0].cancel()
                else:
                    batches[0].set_exception(RuntimeError("lane failed"))
                return await asyncio.wait_for(
                    asyncio.gather(*waiters, return_exceptions=True), 5.0
                )
            finally:
                del loop.run_in_executor

        outcomes = self._run(collector, scenario)
        expected = (
            asyncio.CancelledError if end == "cancelled" else RuntimeError
        )
        assert [type(outcome) for outcome in outcomes] == [expected] * 3


class TestLanes:
    _ACTION = {
        "timestamp": 1.0,
        "user_id": "u1",
        "video_id": "v2",
        "action": "click",
    }

    @staticmethod
    def _lane_threads():
        return sorted(
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith(("gateway-read", "gateway-ingest"))
        )

    def test_lanes_start_with_their_first_request_and_stop_with_the_gateway(
        self,
    ):
        router = _router(_Backend())
        gateway = ServingGateway(
            router, observe=lambda action: None, obs=router.obs
        )
        with GatewayThread(gateway) as server:
            assert self._lane_threads() == []
            assert _request(server.port, "POST", "/ingest", self._ACTION)[0] == 202
            assert self._lane_threads() == ["gateway-ingest_0"]
            _request(server.port, "POST", "/recommend", {"user_id": "u1"})
            assert self._lane_threads() == ["gateway-ingest_0", "gateway-read_0"]
        assert self._lane_threads() == []

    def test_a_failing_observe_is_500_and_the_lane_serves_on(self):
        writers, seen = set(), []

        def observe(action):
            writers.add(threading.current_thread().name)
            if action.user_id == "bad":
                raise RuntimeError("trainer exploded")
            seen.append(action.user_id)

        with _gateway(_router(_Backend()), observe=observe) as server:
            statuses = [
                _request(
                    server.port,
                    "POST",
                    "/ingest",
                    {**self._ACTION, "user_id": user},
                )[0]
                for user in ("u1", "bad", "u2")
            ]
        assert statuses == [202, 500, 202]
        assert seen == ["u1", "u2"]
        assert writers == {"gateway-ingest_0"}

    def test_stop_waits_for_the_running_observe_off_the_loop(self):
        """``stop()`` lets the ``observe`` in flight finish before it closes
        what ``on_stop`` holds (a durable composition's WAL), and the
        event loop keeps running while it waits."""
        entered, release = threading.Event(), threading.Event()
        events = []

        def observe(action):
            entered.set()
            release.wait(timeout=10.0)
            events.append("observed")

        router = _router(_Backend())
        gateway = ServingGateway(router, observe=observe, obs=router.obs)
        gateway.on_stop.callback(events.append, "closed")

        async def scenario():
            await gateway.start()
            client = asyncio.ensure_future(
                asyncio.to_thread(
                    _request, gateway.port, "POST", "/ingest", self._ACTION
                )
            )
            while not entered.is_set():
                await asyncio.sleep(0.001)
            stopping = asyncio.ensure_future(gateway.stop())
            await asyncio.sleep(0.05)
            assert not stopping.done()
            release.set()
            await asyncio.wait_for(stopping, 10.0)
            await asyncio.gather(client, return_exceptions=True)

        asyncio.run(scenario())
        assert events == ["observed", "closed"]


class TestOneRegistry:
    def test_refuses_a_router_built_on_another_bundle(self):
        """``/snapshot`` reads the router's registry and ``/metrics`` the
        gateway's: they must be the same one."""
        with pytest.raises(ValueError, match="one registry"):
            ServingGateway(
                _router(_Backend()),
                observe=lambda action: None,
                obs=Observability.create(),
            )


class TestGatewayConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GatewayConfig(max_connections=0)
        with pytest.raises(ValueError):
            GatewayConfig(batch_max=0)
        with pytest.raises(ValueError):
            GatewayConfig(deadline_ms=-5)


class TestDefaultDeadline:
    def test_config_deadline_applies_when_request_has_none(self):
        captured = []

        class _CapturingRouter(RequestRouter):
            def handle_many(self, requests):
                captured.extend(requests)
                return super().handle_many(requests)

        router = _CapturingRouter(_Backend(), obs=Observability.create())
        config = GatewayConfig(deadline_ms=25.0)
        with _gateway(router, config=config) as server:
            _request(server.port, "POST", "/recommend", {"user_id": "u1"})
            _request(
                server.port,
                "POST",
                "/recommend",
                {"user_id": "u2", "deadline_ms": 90.0},
            )
        assert captured[0].deadline_seconds == pytest.approx(0.025)
        assert captured[1].deadline_seconds == pytest.approx(0.090)

    def test_integer_and_null_request_deadlines(self):
        """A JSON integer is a number; an explicit ``null`` is no budget,
        not the configured default."""
        captured = []

        class _CapturingRouter(RequestRouter):
            def handle_many(self, requests):
                captured.extend(requests)
                return super().handle_many(requests)

        router = _CapturingRouter(_Backend(), obs=Observability.create())
        config = GatewayConfig(deadline_ms=25.0)
        with _gateway(router, config=config) as server:
            for body in (
                {"user_id": "u1", "deadline_ms": 40, "timestamp": 7},
                {"user_id": "u2", "deadline_ms": None},
            ):
                status, _, doc = _request(
                    server.port, "POST", "/recommend", body
                )
                assert status == 200, doc
        assert captured[0].deadline_seconds == pytest.approx(0.040)
        assert captured[0].timestamp == 7.0
        assert captured[1].deadline_seconds is None
