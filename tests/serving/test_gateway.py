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
from repro.serving import GatewayConfig, RequestRouter, ServingGateway
from repro.serving.gateway import _HttpRequest
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


def _request_in_background(results, key, *args):
    """Start a thread that stores ``_request(*args)`` as ``results[key]``."""
    thread = threading.Thread(
        target=lambda: results.__setitem__(key, _request(*args))
    )
    thread.start()
    return thread


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

    def test_snapshot_reports_router_and_gateway(self):
        router = _router(_Backend())
        with _gateway(router) as server:
            _request(server.port, "POST", "/recommend", {"user_id": "u1"})
            status, _, doc = _request(server.port, "GET", "/snapshot")
        assert status == 200
        assert doc["router"]["guess_you_like"]["requests"] == 1
        assert set(doc) == {"router", "gateway"}
        assert doc["gateway"]["rejected_connections"] == 0

    def test_every_routed_recommend_is_one_router_request(self):
        """``/snapshot``'s router total equals the ``/recommend`` series of
        ``gateway_http_requests_total``, less the malformed requests the
        gateway refuses before routing: served, failed and shed alike."""
        obs = Observability.create()
        admission = AdmissionController(
            rate=4.0, clock=VirtualClock(0.0), registry=obs.registry
        )
        router = RequestRouter(
            _Backend(fail_for={"u1"}), admission=admission, obs=obs
        )
        with _gateway(router) as server:
            statuses = [
                _request(server.port, "POST", "/recommend", body)[0]
                for body in (
                    {"user_id": "u0"},
                    {"user_id": "u1"},
                    {"n": 3},
                    {"user_id": "u2", "current_video": "v1"},
                    {"user_id": "u3"},
                    {"user_id": "u4"},
                )
            ]
            _, _, metrics = _request(server.port, "GET", "/metrics")
            _, _, snapshot = _request(server.port, "GET", "/snapshot")
        assert statuses == [200, 500, 400, 200, 200, 503]
        series = metrics["metrics"]["gateway_http_requests_total"]["series"]
        routed = sum(
            s["value"]
            for s in series
            if s["labels"]["path"] == "/recommend"
            and s["labels"]["status"] != "400"
        )
        served = sum(
            stats["requests"] for stats in snapshot["router"].values()
        )
        assert served == routed == 5

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


class TestModelLane:
    """One single-thread lane runs every ``router.handle`` and every
    ``observe``; sockets and parsing stay on the event loop."""

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
            if thread.name.startswith("gateway-model")
        )

    def test_the_lane_starts_with_the_first_request_and_stops_with_the_gateway(
        self,
    ):
        router = _router(_Backend())
        gateway = ServingGateway(
            router, observe=lambda action: None, obs=router.obs
        )
        with GatewayThread(gateway) as server:
            assert self._lane_threads() == []
            assert _request(server.port, "POST", "/ingest", self._ACTION)[0] == 202
            assert self._lane_threads() == ["gateway-model_0"]
            _request(server.port, "POST", "/recommend", {"user_id": "u1"})
            assert self._lane_threads() == ["gateway-model_0"]
        assert self._lane_threads() == []

    def test_concurrent_reads_and_writes_run_on_one_thread(self):
        """Four ``/recommend`` and four ``/ingest`` keep-alive clients at
        once: every ``handle`` and every ``observe`` runs on the model
        lane's one thread, never on the event loop's."""
        threads = []

        class _NotingRouter(RequestRouter):
            def handle(self, request):
                threads.append(threading.current_thread())
                return super().handle(request)

        def observe(action):
            threads.append(threading.current_thread())

        router = _NotingRouter(_Backend(), obs=Observability.create())
        statuses = []

        def client(path, bodies, port):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                for body in bodies:
                    conn.request("POST", path, body=json.dumps(body))
                    response = conn.getresponse()
                    response.read()
                    statuses.append((path, response.status))
            finally:
                conn.close()

        with _gateway(router, observe=observe) as server:
            clients = [
                threading.Thread(
                    target=client,
                    args=(
                        "/recommend",
                        [{"user_id": f"u{i}-{j}"} for j in range(25)],
                        server.port,
                    ),
                )
                for i in range(4)
            ] + [
                threading.Thread(
                    target=client,
                    args=(
                        "/ingest",
                        [
                            {**self._ACTION, "user_id": f"w{i}-{j}"}
                            for j in range(25)
                        ],
                        server.port,
                    ),
                )
                for i in range(4)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in clients)
            loop_thread = server._thread
        assert sorted(statuses) == sorted(
            [("/recommend", 200)] * 100 + [("/ingest", 202)] * 100
        )
        assert len(threads) == 200
        assert {thread.name for thread in threads} == {"gateway-model_0"}
        assert len(set(threads)) == 1
        assert loop_thread not in threads

    def test_concurrent_responses_match_their_requests(self):
        """Each client gets its own request's response, and one user's
        failure leaves the others' responses whole."""
        router = _router(_Backend(fail_for={"u1"}))
        results = {}

        def client(user, port):
            results[user] = _request(
                port, "POST", "/recommend", {"user_id": user}
            )

        with _gateway(router) as server:
            clients = [
                threading.Thread(target=client, args=(f"u{i}", server.port))
                for i in range(6)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in clients)
        assert sorted(results) == [f"u{i}" for i in range(6)]
        for user, (status, _, doc) in results.items():
            assert doc["user_id"] == user
            assert status == (500 if user == "u1" else 200), doc
        assert "backend exploded" in results["u1"][2]["error"]

    def test_a_failing_observe_is_500_and_the_lane_serves_on(self):
        workers, seen = set(), []

        def observe(action):
            workers.add(threading.current_thread().name)
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
            served, _, _ = _request(
                server.port, "POST", "/recommend", {"user_id": "u1"}
            )
        assert statuses == [202, 500, 202]
        assert served == 200
        assert seen == ["u1", "u2"]
        assert workers == {"gateway-model_0"}

    def test_a_read_that_arrives_during_a_write_is_served_after_it(self):
        """A ``/recommend`` that arrives while an ``observe`` runs waits
        for it and is served on the state the write left."""
        entered, release = threading.Event(), threading.Event()
        watched = []

        class _Watched:
            def recommend_ids(self, user_id, current_video=None, n=None,
                              now=None):
                return list(watched)

        def observe(action):
            entered.set()
            release.wait(timeout=10.0)
            watched.append(action.video_id)

        results = {}
        with _gateway(_router(_Watched()), observe=observe) as server:
            write = _request_in_background(
                results, "ingest", server.port, "POST", "/ingest", self._ACTION
            )
            assert entered.wait(timeout=10.0)
            read = _request_in_background(
                results,
                "recommend",
                server.port,
                "POST",
                "/recommend",
                {"user_id": "u1"},
            )
            read.join(timeout=0.05)
            assert "recommend" not in results  # queued behind the write
            release.set()
            write.join(timeout=10.0)
            read.join(timeout=10.0)
            assert not write.is_alive() and not read.is_alive()
        assert results["ingest"][0] == 202
        status, _, doc = results["recommend"]
        assert status == 200, doc
        assert doc["video_ids"] == ["v2"]

    def test_a_write_that_arrives_during_a_read_is_applied_after_it(self):
        """An ``/ingest`` that arrives while ``router.handle`` runs is not
        applied until the read has been served, so the read's response is
        computed on the state before the write."""
        entered, release = threading.Event(), threading.Event()
        watched, observed = [], []

        class _Watched:
            def recommend_ids(self, user_id, current_video=None, n=None,
                              now=None):
                entered.set()
                release.wait(timeout=10.0)
                return list(watched)

        def observe(action):
            observed.append(action.video_id)
            watched.append(action.video_id)

        results = {}
        with _gateway(_router(_Watched()), observe=observe) as server:
            read = _request_in_background(
                results,
                "recommend",
                server.port,
                "POST",
                "/recommend",
                {"user_id": "u1"},
            )
            assert entered.wait(timeout=10.0)
            write = _request_in_background(
                results, "ingest", server.port, "POST", "/ingest", self._ACTION
            )
            write.join(timeout=0.05)
            assert observed == []  # queued behind the read
            release.set()
            read.join(timeout=10.0)
            write.join(timeout=10.0)
            assert not write.is_alive() and not read.is_alive()
        status, _, doc = results["recommend"]
        assert status == 200, doc
        assert doc["video_ids"] == []
        assert results["ingest"][0] == 202
        assert observed == ["v2"]

    def test_a_request_after_stop_fails_instead_of_hanging(self):
        """A stopped gateway's lane takes no work: a late request gets the
        lane's error as a 500, and no thread starts to serve it.  No
        socket is open after ``stop()``, so the request enters below
        HTTP."""
        backend = _Backend()
        router = _router(backend)
        gateway = ServingGateway(
            router, observe=lambda action: None, obs=router.obs
        )
        late = _HttpRequest(
            method="POST",
            path="/recommend",
            headers={},
            body=json.dumps({"user_id": "u1"}).encode(),
        )

        async def scenario():
            await gateway.start()
            await gateway.stop()
            return await asyncio.wait_for(gateway._dispatch(late), 5.0)

        status, doc, _ = asyncio.run(scenario())
        assert status == 500
        assert "shutdown" in doc["error"]
        assert backend.calls == []
        assert self._lane_threads() == []

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
            GatewayConfig(deadline_ms=-5)

    def test_accepts_the_boundary_values(self):
        config = GatewayConfig(max_connections=1, deadline_ms=0)
        assert config.max_connections == 1
        assert config.deadline_ms == 0


class _CapturingRouter(RequestRouter):
    """Keeps every request ``handle`` receives.  Its clock stands still
    unless the test advances it, so a request's wait for the lane takes
    nothing off its budget by itself."""

    def __init__(self, backend, clock=None):
        obs = Observability(perf_clock=clock or VirtualClock(0.0))
        super().__init__(backend, obs=obs)
        self.captured = []

    def handle(self, request):
        self.captured.append(request)
        return super().handle(request)


class TestDefaultDeadline:
    def test_config_deadline_applies_when_request_has_none(self):
        router = _CapturingRouter(_Backend())
        config = GatewayConfig(deadline_ms=25.0)
        with _gateway(router, config=config) as server:
            _request(server.port, "POST", "/recommend", {"user_id": "u1"})
            _request(
                server.port,
                "POST",
                "/recommend",
                {"user_id": "u2", "deadline_ms": 90.0},
            )
        captured = router.captured
        assert captured[0].deadline_seconds == pytest.approx(0.025)
        assert captured[1].deadline_seconds == pytest.approx(0.090)

    def test_integer_and_null_request_deadlines(self):
        """A JSON integer is a number; an explicit ``null`` is no budget,
        not the configured default."""
        router = _CapturingRouter(_Backend())
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
        captured = router.captured
        assert captured[0].deadline_seconds == pytest.approx(0.040)
        assert captured[0].timestamp == 7.0
        assert captured[1].deadline_seconds is None


class TestDeadlineCountsQueueTime:
    def test_a_request_queued_past_its_budget_gets_504(self):
        """The budget starts when the gateway has parsed the request, not
        when the lane reaches it.  B (5 ms, a failing primary, a working
        fallback) waits about 50 ms behind A: its budget is spent before
        its turn, so it gets 504 instead of a degraded 200."""
        entered, release = threading.Event(), threading.Event()

        class _Primary:
            def recommend_ids(self, user_id, current_video=None, n=None,
                              now=None):
                if user_id == "a":
                    entered.set()
                    release.wait(timeout=10.0)
                    return ["v1"]
                raise RuntimeError("primary down")

        router = _router(_Primary(), fallback=_Backend())
        results = {}

        def client(user, body, port):
            results[user] = _request(port, "POST", "/recommend", body)

        with _gateway(router) as server:
            first = threading.Thread(
                target=client, args=("a", {"user_id": "a"}, server.port)
            )
            first.start()
            assert entered.wait(timeout=10.0)
            second = threading.Thread(
                target=client,
                args=("b", {"user_id": "b", "deadline_ms": 5}, server.port),
            )
            second.start()
            time.sleep(0.05)
            release.set()
            first.join(timeout=10.0)
            second.join(timeout=10.0)
            assert not first.is_alive() and not second.is_alive()
        assert results["a"][0] == 200
        status, headers, doc = results["b"]
        assert status == 504, doc
        assert "X-Repro-Degraded" not in headers
        assert doc["error"] == "deadline exceeded"

    @pytest.mark.parametrize("budget_from", ["request", "config"])
    def test_a_queued_request_gets_what_is_left_of_its_budget(
        self, budget_from
    ):
        """B's 40 ms budget, from its body or the gateway's default, starts
        when the gateway parses it; 30 ms pass on the clock while it waits
        behind A, so the router is handed the 10 ms that are left."""
        entered, release = threading.Event(), threading.Event()
        parsed = threading.Semaphore(0)

        class _LoopCountingClock(VirtualClock):
            """Signals each read on the event loop: the gateway reads the
            clock there once per ``/recommend`` it parses."""

            def now(self):
                if threading.current_thread().name == "gateway-loop":
                    parsed.release()
                return super().now()

        class _Primary:
            def recommend_ids(self, user_id, current_video=None, n=None,
                              now=None):
                if user_id == "a":
                    entered.set()
                    release.wait(timeout=10.0)
                return ["v1"]

        clock = _LoopCountingClock(0.0)
        router = _CapturingRouter(_Primary(), clock=clock)
        body_b = {"user_id": "b"}
        config = GatewayConfig()
        if budget_from == "request":
            body_b["deadline_ms"] = 40
        else:
            config = GatewayConfig(deadline_ms=40.0)
        results = {}
        with _gateway(router, config=config) as server:
            first = _request_in_background(
                results, "a", server.port, "POST", "/recommend",
                {"user_id": "a", "deadline_ms": None},
            )
            assert entered.wait(timeout=10.0)
            second = _request_in_background(
                results, "b", server.port, "POST", "/recommend", body_b
            )
            assert parsed.acquire(timeout=10.0)  # A's parse
            assert parsed.acquire(timeout=10.0)  # B's parse
            clock.advance(0.030)
            release.set()
            first.join(timeout=10.0)
            second.join(timeout=10.0)
            assert not first.is_alive() and not second.is_alive()
        captured = router.captured
        assert [request.user_id for request in captured] == ["a", "b"]
        assert captured[0].deadline_seconds is None
        assert captured[1].deadline_seconds == pytest.approx(0.010)
        status, headers, doc = results["b"]
        assert status == 200, doc
        assert "X-Repro-Degraded" not in headers
