"""Wire-semantics contract: router outcomes ↔ HTTP statuses ↔ counters.

Each test drives one overload outcome through a real socket and asserts
*both* sides of the contract — the HTTP status/header the client saw and
the router snapshot counter that moved — so the wire mapping and the
internal accounting cannot drift apart (DESIGN.md "Serving over HTTP").
"""

from __future__ import annotations

import http.client
import json

from repro.clock import VirtualClock
from repro.obs import Observability
from repro.reliability.overload import AdmissionController
from repro.serving import RequestRouter, ServingGateway
from tests.support.gateway_thread import GatewayThread


class _OkBackend:
    def recommend_ids(self, user_id, current_video=None, n=None, now=None):
        return [f"rec{i}" for i in range(n or 10)]


class _FailingBackend:
    def recommend_ids(self, user_id, current_video=None, n=None, now=None):
        raise RuntimeError("primary exploded")


def _post_recommend(port, body):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.request(
            "POST",
            "/recommend",
            body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        doc = json.loads(response.read() or b"{}")
        return response.status, dict(response.getheaders()), doc
    finally:
        conn.close()


def _serve(router):
    return GatewayThread(
        ServingGateway(
            router, observe=lambda action: None, obs=Observability.create()
        )
    )


def _snapshot(router):
    return router.snapshot()["guess_you_like"]


def test_shed_maps_to_503_with_retry_after():
    # A one-token bucket on a clock nobody advances, its token spent up
    # front, sheds every request on arrival.
    admission = AdmissionController(rate=1, clock=VirtualClock(0.0))
    assert admission.try_admit().admitted
    router = RequestRouter(_OkBackend(), admission=admission)
    with _serve(router) as server:
        status, headers, doc = _post_recommend(server.port, {"user_id": "u1"})
    assert status == 503
    assert headers["Retry-After"] == "1"
    assert doc["error"] == "shed"
    assert doc["reason"] == "rate"
    counters = _snapshot(router)
    assert counters["shed"] == 1
    assert counters["requests"] == 1
    assert counters["errors"] == 0


def test_deadline_maps_to_504():
    # Primary fails and the budget is already spent -> deadline, not error.
    router = RequestRouter(_FailingBackend(), fallback=_OkBackend())
    with _serve(router) as server:
        status, _headers, doc = _post_recommend(
            server.port, {"user_id": "u1", "deadline_ms": 0}
        )
    assert status == 504
    assert doc["error"] == "deadline exceeded"
    counters = _snapshot(router)
    assert counters["deadline_exceeded"] == 1
    assert counters["errors"] == 0
    assert counters["fallbacks"] == 0


def test_fallback_served_maps_to_200_with_degraded_header():
    router = RequestRouter(_FailingBackend(), fallback=_OkBackend())
    with _serve(router) as server:
        status, headers, doc = _post_recommend(
            server.port, {"user_id": "u1", "n": 2}
        )
    assert status == 200
    assert headers["X-Repro-Degraded"] == "1"
    assert doc["video_ids"] == ["rec0", "rec1"]
    counters = _snapshot(router)
    assert counters["fallbacks"] == 1
    assert counters["errors"] == 0


def test_fallback_also_failing_maps_to_500():
    router = RequestRouter(_FailingBackend(), fallback=_FailingBackend())
    with _serve(router) as server:
        status, headers, doc = _post_recommend(server.port, {"user_id": "u1"})
    assert status == 500
    assert "primary exploded" in doc["error"]
    assert "fallback failed" in doc["error"]
    assert "X-Repro-Degraded" not in headers
    counters = _snapshot(router)
    assert counters["errors"] == 1
    assert counters["fallbacks"] == 0


def test_ok_maps_to_plain_200():
    router = RequestRouter(_OkBackend())
    with _serve(router) as server:
        status, headers, doc = _post_recommend(
            server.port, {"user_id": "u1", "n": 1}
        )
    assert status == 200
    assert "X-Repro-Degraded" not in headers
    assert doc["video_ids"] == ["rec0"]
    counters = _snapshot(router)
    assert counters["requests"] == 1
    assert counters["errors"] == 0
    assert counters["shed"] == 0

