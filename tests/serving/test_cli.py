"""Tests for the ``repro-serve`` console entry point."""

from __future__ import annotations

import http.client
import json
import random

import pytest

from repro.data import ActionType, UserAction
from repro.serving import GatewayConfig
from repro.serving.cli import _build_parser, build_demo_gateway
from tests.support.gateway_thread import GatewayThread


def test_parser_defaults_and_flags():
    args = _build_parser().parse_args([])
    defaults = GatewayConfig()
    assert args.port == 8080
    assert args.host == defaults.host
    assert args.max_connections == defaults.max_connections
    assert args.deadline_ms == defaults.deadline_ms
    assert args.batch_window_ms == defaults.batch_window_ms
    assert args.batch_max == defaults.batch_max

    args = _build_parser().parse_args(
        [
            "--port", "0",
            "--max-connections", "16",
            "--deadline-ms", "50",
            "--batch-window-ms", "5",
            "--rate", "100",
        ]
    )
    assert args.port == 0
    assert args.max_connections == 16
    assert args.deadline_ms == 50.0
    assert args.batch_window_ms == 5.0
    assert args.rate == 100.0


def test_demo_gateway_serves_end_to_end():
    """The CLI's wiring really serves a trained model over a socket."""
    gateway = build_demo_gateway(
        GatewayConfig(port=0, batch_window_ms=1.0),
        rate=None,
        max_concurrency=None,
        n_users=25,
        n_videos=30,
        seed=7,
    )
    with GatewayThread(gateway) as server:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/recommend",
                body=json.dumps({"user_id": "u0001", "n": 5}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status == 200
            assert len(doc["video_ids"]) > 0

            # Live ingest through the wire reaches the trainer.
            conn.request(
                "POST",
                "/ingest",
                body=json.dumps(
                    {
                        "timestamp": 1e6,
                        "user_id": "u0001",
                        "video_id": doc["video_ids"][0],
                        "action": "click",
                    }
                ),
                headers={"Content-Type": "application/json"},
            )
            ingest = conn.getresponse()
            assert ingest.status == 202
            ingest.read()

            conn.request("GET", "/healthz")
            health = conn.getresponse()
            assert health.status == 200
            health.read()
        finally:
            conn.close()


def _durable_boot(data_dir, capsys):
    """``build_demo_gateway(data_dir=...)``'s recommender and what it printed."""
    gateway = build_demo_gateway(
        GatewayConfig(port=0),
        rate=None,
        max_concurrency=None,
        n_users=10,
        n_videos=30,
        seed=7,
        data_dir=data_dir,
    )
    return gateway.router.recommender, capsys.readouterr().out


@pytest.mark.parametrize("n_tail", [30, 300])
def test_restart_recovers_checkpoint_plus_tail(tmp_path, capsys, n_tail):
    """The served recovery path with a non-empty tail: a restart rolls back
    to the boot checkpoint, replays exactly the actions ingested since, and
    serves every user the list the uninterrupted process served — the
    demographic hot lists decay by timestamp deltas, so this holds only if
    they see the log in order (prefix first, then tail)."""
    live, boot_out = _durable_boot(tmp_path, capsys)
    assert "recovered" not in boot_out  # fresh directory: trained, not recovered
    users, videos = sorted(live.users), sorted(live.videos)
    rng = random.Random(n_tail)
    stamp = 1e7
    for _ in range(n_tail):
        stamp += rng.randrange(1, 600)  # whole seconds: the WAL keeps ms
        live.observe(
            UserAction(
                stamp,
                rng.choice(users),
                rng.choice(videos),
                rng.choice((ActionType.PLAY, ActionType.CLICK)),
            )
        )
    now = stamp + 60.0
    served = {user: live.recommend_ids(user, n=10, now=now) for user in users}

    # The crash: nothing of ``live`` is flushed or closed; only what its
    # WAL and its boot checkpoint put on disk reaches the next process.
    restarted, out = _durable_boot(tmp_path, capsys)
    assert "checkpoint=ckpt-" in out
    assert f"replayed={n_tail} " in out
    assert {
        user: restarted.recommend_ids(user, n=10, now=now) for user in users
    } == served
