"""Tests for the asyncio HTTP serving gateway.

Everything here runs over real sockets on an ephemeral port — the point
of the gateway is the network boundary, so the tests exercise it through
``http.client`` rather than poking coroutine internals.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

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
    Scenario,
    ServingGateway,
)
from repro.serving.router import MAX_N
from tests.support.gateway_thread import GatewayThread


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


def _gateway(router, config=None, observe=None, obs=None):
    return GatewayThread(
        ServingGateway(
            router,
            config=config or GatewayConfig(),
            observe=observe or (lambda action: None),
            obs=obs or Observability.create(),
        )
    )


class TestEndpoints:
    def test_recommend_ok(self):
        router = RequestRouter(_Backend())
        with _gateway(router) as server:
            status, headers, doc = _request(
                server.port, "POST", "/recommend", {"user_id": "u1", "n": 3}
            )
        assert status == 200
        assert doc["video_ids"] == ["rec0", "rec1", "rec2"]
        assert doc["scenario"] == "guess_you_like"
        assert "X-Repro-Degraded" not in headers

    def test_recommend_related_scenario(self):
        router = RequestRouter(_Backend())
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
        router = RequestRouter(_Backend())
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
        with _gateway(RequestRouter(backend)) as server:
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
        ],
        ids=["inf-time", "nan-time", "neg-deadline", "nan-deadline"],
    )
    def test_recommend_bad_time_or_deadline_is_400(self, bad):
        """``json.loads`` accepts ``Infinity`` and ``NaN``: an infinite
        ``now`` collapses every time-damped score (the list falls back to
        id order), and a negative or NaN budget is no budget at all."""
        backend = _Backend()
        with _gateway(RequestRouter(backend)) as server:
            status, _, doc = _request(
                server.port, "POST", "/recommend", {"user_id": "u1", **bad}
            )
        assert status == 400, doc
        assert "bad request field" in doc["error"]
        assert backend.calls == []

    def test_invalid_json_is_400(self):
        router = RequestRouter(_Backend())
        with _gateway(router) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            try:
                conn.request("POST", "/recommend", body="{not json")
                response = conn.getresponse()
                assert response.status == 400
            finally:
                conn.close()

    def test_unknown_path_404_wrong_method_405(self):
        router = RequestRouter(_Backend())
        with _gateway(router) as server:
            status_404, _, _ = _request(server.port, "GET", "/nope")
            status_405, _, _ = _request(server.port, "GET", "/recommend")
        assert status_404 == 404
        assert status_405 == 405

    def test_snapshot_reports_router_and_coalescing(self):
        router = RequestRouter(_Backend())
        with _gateway(router) as server:
            _request(server.port, "POST", "/recommend", {"user_id": "u1"})
            status, _, doc = _request(server.port, "GET", "/snapshot")
        assert status == 200
        assert doc["router"]["guess_you_like"]["requests"] == 1
        assert doc["coalescing"]["batches"] == 1
        assert doc["coalescing"]["requests"] == 1
        assert doc["gateway"]["rejected_connections"] == 0

    def test_metrics_serves_registry_document(self):
        obs = Observability.create()
        router = RequestRouter(_Backend(), obs=obs)
        with _gateway(router, obs=obs) as server:
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
        router = RequestRouter(_Backend())
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
        router = RequestRouter(_Backend())
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
        ],
        ids=["tab-in-user", "empty-user", "cr-in-video", "nan-time", "nan-view"],
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
            with _gateway(RequestRouter(_Backend()), observe=wal.append) as server:
                status, _, doc = _request(server.port, "POST", "/ingest", body)
                assert status == 400, doc
                assert "bad action" in doc["error"]
                status, _, _ = _request(server.port, "POST", "/ingest", good)
                assert status == 202
        replayed = [action for _, action in ActionWAL(tmp_path / "wal").replay()]
        assert [(a.user_id, a.video_id) for a in replayed] == [("u1", "v2")]


class TestHealthz:
    def test_healthy_gateway_is_200(self):
        router = RequestRouter(_Backend())
        with _gateway(router) as server:
            status, _, doc = _request(server.port, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["breaker"] is None

    def test_open_breaker_flips_healthz_to_503(self):
        breaker = CircuitBreaker()
        router = RequestRouter(
            _Backend(fail_always=True), breaker=breaker
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
        admission = AdmissionController(rate=8, clock=VirtualClock(0.0))
        router = RequestRouter(_Backend(), admission=admission)
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
        assert router.stats(Scenario.GUESS_YOU_LIKE).shed == 16


class TestConnectionLimit:
    def test_excess_connection_gets_503_and_close(self):
        router = RequestRouter(_Backend())
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


class TestKeepAlive:
    def test_many_requests_on_one_connection(self):
        router = RequestRouter(_Backend())
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
        assert router.stats(Scenario.GUESS_YOU_LIKE).requests == 5


class TestCollector:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_concurrent_submissions_coalesce(self):
        router = RequestRouter(_Backend())
        collector = RequestCollector(
            router, Observability.create(), batch_max=64, window_seconds=0.05
        )

        async def scenario():
            return await asyncio.gather(
                *(collector.submit(RecRequest(f"u{i}")) for i in range(8))
            )

        responses = self._run(scenario())
        assert len(responses) == 8
        assert all(r.ok for r in responses)
        snap = collector.coalesce_snapshot()
        assert snap["batches"] == 1
        assert snap["requests"] == 8
        assert snap["mean_batch_size"] == 8.0

    def test_batch_max_forces_flush(self):
        router = RequestRouter(_Backend())
        collector = RequestCollector(
            router, Observability.create(), batch_max=4, window_seconds=60.0
        )

        async def scenario():
            return await asyncio.gather(
                *(collector.submit(RecRequest(f"u{i}")) for i in range(4))
            )

        responses = self._run(scenario())
        # Window is a minute; only the size bound can have flushed.
        assert len(responses) == 4
        assert collector.coalesce_snapshot()["max_batch_size"] == 4

    def test_responses_match_requests_in_order(self):
        router = RequestRouter(_Backend(fail_for={"u1"}))
        collector = RequestCollector(
            router, Observability.create(), batch_max=8, window_seconds=0.01
        )

        async def scenario():
            return await asyncio.gather(
                *(collector.submit(RecRequest(f"u{i}")) for i in range(3))
            )

        responses = self._run(scenario())
        assert [r.request.user_id for r in responses] == ["u0", "u1", "u2"]
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok  # the failing user failed, others didn't

    def test_rejects_bad_bounds(self):
        router = RequestRouter(_Backend())
        obs = Observability.create()
        with pytest.raises(ValueError):
            RequestCollector(router, obs, batch_max=0)
        with pytest.raises(ValueError):
            RequestCollector(router, obs, window_seconds=-1.0)


class TestGatewayConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GatewayConfig(max_connections=0)
        with pytest.raises(ValueError):
            GatewayConfig(batch_window_ms=-1)
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
        assert captured[0].deadline_seconds == pytest.approx(0.025)
        assert captured[1].deadline_seconds == pytest.approx(0.090)
