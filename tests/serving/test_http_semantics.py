"""Wire-semantics contract: router outcomes ↔ HTTP statuses ↔ counters.

Each test drives one overload outcome through a real socket and asserts
*both* sides of the contract — the HTTP status/header the client saw and
the router snapshot counter that moved — so the wire mapping and the
internal accounting cannot drift apart (DESIGN.md "Serving over HTTP").
The last test checks that ``/snapshot`` and ``/metrics`` report the same
numbers, since both read the one registry.
"""

from __future__ import annotations

import http.client
import json

from repro.clock import VirtualClock
from repro.obs import Observability
from repro.reliability.overload import (
    FAILURE_THRESHOLD,
    AdmissionController,
    CircuitBreaker,
)
from repro.serving import GatewayConfig, RequestRouter, ServingGateway
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


def _router(primary, **kwargs):
    return RequestRouter(primary, obs=Observability.create(), **kwargs)


def _serve(router, config=None):
    return GatewayThread(
        ServingGateway(
            router,
            observe=lambda action: None,
            obs=router.obs,
            config=config,
        )
    )


def _snapshot(router):
    return router.snapshot()["guess_you_like"]


def test_shed_maps_to_503_with_retry_after():
    # A one-token bucket on a clock nobody advances, its token spent up
    # front, sheds every request on arrival.
    obs = Observability.create()
    admission = AdmissionController(
        rate=1, clock=VirtualClock(0.0), registry=obs.registry
    )
    assert admission.try_admit().admitted
    router = RequestRouter(_OkBackend(), admission=admission, obs=obs)
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
    router = _router(_FailingBackend(), fallback=_OkBackend())
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
    router = _router(_FailingBackend(), fallback=_OkBackend())
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
    router = _router(_FailingBackend(), fallback=_FailingBackend())
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
    router = _router(_OkBackend())
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



class _ScriptedBackend:
    """Serves a list, except: ``empty`` gets none, ``boom*`` users make the
    primary raise, and ``boom-all`` makes the fallback raise too."""

    def __init__(self, fails_for):
        self.fails_for = fails_for

    def recommend_ids(self, user_id, current_video=None, n=None, now=None):
        if self.fails_for(user_id):
            raise RuntimeError(f"{user_id} exploded")
        if user_id == "empty":
            return []
        return [f"rec{i}" for i in range(n or 10)]


def _total(metrics, metric, **labels):
    return sum(
        series["value"]
        for series in metrics[metric]["series"]
        if all(series["labels"][k] == v for k, v in labels.items())
    )


def _histogram(metrics, metric, **labels):
    (series,) = [
        series
        for series in metrics[metric]["series"]
        if series["labels"] == labels
    ]
    return series


#: The home scenario's counts after the requests below.
_EXPECTED_HOME = {
    "requests": 8,
    "errors": 1,
    "empty": 1,
    "fallbacks": 3,
    "shed": 1,
    "deadline_exceeded": 1,
}


def test_snapshot_and_metrics_report_the_same_numbers():
    """Every outcome once — ok, empty, degraded, error, deadline exceeded,
    breaker fast-fail, shed — plus a rejected connection; then each
    ``/snapshot`` number equals its ``/metrics`` series."""
    obs = Observability.create()
    breaker = CircuitBreaker(name="primary", registry=obs.registry)
    router = RequestRouter(
        _ScriptedBackend(lambda user: user.startswith("boom")),
        fallback=_ScriptedBackend(lambda user: user == "boom-all"),
        # Eight tokens on a clock nobody advances: the ninth request sheds.
        admission=AdmissionController(
            rate=8, clock=VirtualClock(0.0), registry=obs.registry
        ),
        breaker=breaker,
        obs=obs,
    )
    bodies = [
        ({"user_id": "u1"}, 200),
        ({"user_id": "empty"}, 200),
        ({"user_id": "boom", "current_video": "v1"}, 200),  # degraded
        ({"user_id": "boom-all"}, 500),
        ({"user_id": "boom", "deadline_ms": 0}, 504),
        *[({"user_id": "boom"}, 200)] * (FAILURE_THRESHOLD - 3),
        ({"user_id": "u1"}, 200),  # breaker open: fast-fail, degraded
        ({"user_id": "u1"}, 503),  # out of tokens: shed
    ]

    def call(conn, method, path, body=None):
        conn.request(method, path, body=json.dumps(body) if body else None)
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    with _serve(router, GatewayConfig(max_connections=1)) as server:
        # One keep-alive connection holds the only slot throughout.
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            for body, status in bodies:
                assert call(conn, "POST", "/recommend", body)[0] == status
            rejected, _, _ = _post_recommend(server.port, {"user_id": "u1"})
            _, snapshot = call(conn, "GET", "/snapshot")
            _, document = call(conn, "GET", "/metrics")
        finally:
            conn.close()
    assert rejected == 503
    metrics = document["metrics"]

    home = snapshot["router"]["guess_you_like"]
    related = snapshot["router"]["related_videos"]
    assert {key: home[key] for key in _EXPECTED_HOME} == _EXPECTED_HOME
    assert (related["requests"], related["fallbacks"]) == (1, 1)
    assert _total(metrics, "breaker_fast_failures_total", name="primary") == 1

    outcomes = {
        "errors": "error",
        "fallbacks": "degraded",
        "shed": "shed",
        "deadline_exceeded": "deadline_exceeded",
    }
    for scenario, stats in snapshot["router"].items():
        assert stats["requests"] == _total(
            metrics, "serving_requests_total", scenario=scenario
        )
        for key, outcome in outcomes.items():
            assert stats[key] == _total(
                metrics,
                "serving_requests_total",
                scenario=scenario,
                outcome=outcome,
            ), (scenario, key)
        assert stats["empty"] == _total(
            metrics, "serving_empty_responses_total", scenario=scenario
        )
        latency = _histogram(
            metrics, "serving_request_latency_seconds", scenario=scenario
        )
        mean = latency["sum"] / latency["count"]
        assert stats["mean_latency_ms"] == mean * 1000.0
        for stat in ("max", "p50", "p95", "p99"):
            assert stats[f"{stat}_latency_ms"] == latency[stat] * 1000.0

    served = sum(stats["requests"] for stats in snapshot["router"].values())
    assert served == _total(
        metrics, "gateway_http_requests_total", path="/recommend"
    ) == len(bodies)
    assert snapshot["gateway"]["rejected_connections"] == _total(
        metrics, "gateway_connections_rejected_total"
    ) == 1
