"""Tests for the ``repro-serve`` console entry point."""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import os
import pickle
import random
import sys
import threading

import pytest

from repro.baselines import HotRecommender
from repro.core import UserHistoryStore
from repro.data import GLOBAL_GROUP, ActionType, SyntheticWorld, UserAction
from repro.data.synthetic import paper_world_config
from repro.serving import GatewayConfig, RecRequest
from repro.reliability import ActionWAL
from repro.serving.cli import FSYNC_POLICIES, _build_parser, build_demo_gateway
from tests.support.gateway_thread import GatewayThread
from tests.support.state import CountingState
from tests.support.world import history_entries, raw_entries, stored_rows


def test_parser_defaults_and_flags():
    args = _build_parser().parse_args([])
    defaults = GatewayConfig()
    assert args.port == 8080
    assert args.host == defaults.host
    assert args.max_connections == defaults.max_connections
    assert args.deadline_ms == defaults.deadline_ms

    args = _build_parser().parse_args(
        [
            "--port", "0",
            "--max-connections", "16",
            "--deadline-ms", "50",
            "--rate", "100",
        ]
    )
    assert args.port == 0
    assert args.max_connections == 16
    assert args.deadline_ms == 50.0
    assert args.rate == 100.0
    with pytest.raises(SystemExit):  # requests are never held back
        _build_parser().parse_args(["--batch-window-ms", "2"])
    with pytest.raises(SystemExit):  # one model thread: nothing to cap
        _build_parser().parse_args(["--max-inflight", "4"])
    with pytest.raises(SystemExit):  # nothing is batched
        _build_parser().parse_args(["--batch-max", "8"])


def test_a_concurrency_cap_is_refused():
    """The model lane serves one request at a time, so a cap on
    concurrently served requests could never shed: it is refused rather
    than silently ignored."""
    with pytest.raises(ValueError, match="max_concurrency"):
        build_demo_gateway(
            GatewayConfig(port=0), rate=None, max_concurrency=4, **DEMO_WORLD
        )


def test_demo_gateway_serves_end_to_end():
    """The CLI's wiring really serves a trained model over a socket."""
    gateway = build_demo_gateway(
        GatewayConfig(port=0),
        rate=None,
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


#: The world every durable boot below trains on.
DEMO_WORLD = dict(n_users=10, n_videos=30, seed=7)
#: Durable gateways the running test built.  A test leaves them open, as
#: a crash would; they are stopped (closing their WALs) after it.
_BUILT = []


@pytest.fixture(autouse=True)
def _stop_built_gateways():
    yield
    while _BUILT:
        asyncio.run(_BUILT.pop().stop())


def _durable_gateway(data_dir, capsys, fsync="interval", world=DEMO_WORLD):
    """``build_demo_gateway(data_dir=...)`` and what it printed."""
    gateway = build_demo_gateway(
        GatewayConfig(port=0),
        rate=None,
        data_dir=data_dir,
        fsync=fsync,
        **world,
    )
    _BUILT.append(gateway)
    return gateway, capsys.readouterr().out


def _durable_boot(data_dir, capsys, fsync="interval"):
    """``build_demo_gateway(data_dir=...)``'s recommender and what it printed."""
    gateway, out = _durable_gateway(data_dir, capsys, fsync)
    return gateway.router.recommender, out


@pytest.mark.parametrize("n_tail", [30, 300])
def test_restart_recovers_checkpoint_plus_tail(tmp_path, capsys, n_tail):
    """The served recovery path with a non-empty tail: a restart rolls back
    to the boot checkpoint, replays exactly the actions ingested since, and
    serves every user the list the uninterrupted process served — the
    demographic hot lists included, which the checkpoint carries."""
    live, boot_out = _durable_boot(tmp_path, capsys)
    assert "recovered" not in boot_out  # fresh directory: trained, not recovered
    serve = _ingest_tail(live, n_tail)
    served = serve(live)

    # The crash: nothing of ``live`` is closed; only what its WAL and its
    # boot checkpoint put on disk reaches the next process.
    restarted, out = _durable_boot(tmp_path, capsys)
    assert "checkpoint=ckpt-" in out
    assert f"replayed={n_tail} " in out
    assert serve(restarted) == served


def test_data_dir_with_a_segments_checkpoint_replays_the_whole_log(
    tmp_path, capsys
):
    """A data dir an older build wrote — its boot sealed by a
    ``kind="segments"`` checkpoint that only references the files of a
    log-structured ``kv/`` tier — still boots.  That checkpoint holds no
    entries, so the restart replays the whole WAL (the boot's training
    actions, then the tail) and serves what the live process served."""
    live, _ = _durable_boot(tmp_path, capsys)
    serve = _ingest_tail(live, 30)
    served = serve(live)

    (checkpoint,) = (tmp_path / "ckpt").glob("ckpt-*")
    (checkpoint / "state.pkl").unlink()
    manifest_path = checkpoint / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    segments = [{"name": "seg-000000000001.log", "bytes": 4096}]
    manifest.update(
        kind="segments",
        segments=segments,
        sha256=hashlib.sha256(
            json.dumps(segments, sort_keys=True).encode("utf-8")
        ).hexdigest(),
    )
    manifest_path.write_text(json.dumps(manifest, indent=2))
    (tmp_path / "kv").mkdir()
    (tmp_path / "kv" / "seg-000000000001.log").write_bytes(bytes(4096))

    restarted, out = _durable_boot(tmp_path, capsys)
    assert "checkpoint=none " in out
    assert f"replayed={manifest['wal_seq'] + 30} " in out
    assert serve(restarted) == served


def _ingest_tail(live, n_tail, observe=None):
    """Observe ``n_tail`` seeded actions through ``observe`` (by default
    ``live.observe``); return a function giving any recommender's top-10
    per user at a time after them."""
    observe = observe or live.observe
    users, videos = sorted(live.users), sorted(live.videos)
    rng = random.Random(n_tail)
    stamp = 1e7
    for _ in range(n_tail):
        stamp += rng.randrange(1, 600)
        observe(
            UserAction(
                stamp,
                rng.choice(users),
                rng.choice(videos),
                rng.choice((ActionType.PLAY, ActionType.CLICK)),
            )
        )
    now = stamp + 60.0

    def serve(recommender):
        return {
            user: recommender.recommend_ids(user, n=10, now=now)
            for user in users
        }

    return serve


def _served_lists(gateway, serve):
    """Every user's primary and hot-videos fallback lists."""
    return serve(gateway.router.recommender), serve(gateway.router.fallback)


def test_restart_serves_the_live_primary_and_fallback_lists(tmp_path, capsys):
    """``gateway.observe`` — what ``/ingest`` runs — feeds the primary and
    the hot-videos fallback alike, and the boot checkpoint holds both, so
    a restart replays exactly the ingested actions and every user gets the
    live process's primary and fallback lists."""
    n_ingested = 200
    live, _ = _durable_gateway(tmp_path, capsys)
    users = sorted(live.router.recommender.users)

    def fallback_lists():
        return [
            live.router.fallback.recommend_ids(user, n=10, now=2e7)
            for user in users
        ]

    before = fallback_lists()
    serve = _ingest_tail(live.router.recommender, n_ingested, live.observe)
    served = _served_lists(live, serve)
    assert fallback_lists() != before  # the ingested actions reached it

    restarted, out = _durable_gateway(tmp_path, capsys)
    assert "checkpoint=ckpt-" in out
    assert f"replayed={n_ingested} " in out
    assert _served_lists(restarted, serve) == served


def test_one_engagement_is_one_history_update(monkeypatch):
    """The fallback's watched sets are the recommender's history, which
    the recommender records; the fallback only bumps its hot count."""
    gateway = build_demo_gateway(
        GatewayConfig(port=0), rate=None, **DEMO_WORLD
    )
    recommender = gateway.router.recommender
    user, video = sorted(recommender.users)[0], sorted(recommender.videos)[0]
    hot_before = gateway.router.fallback.tracker.hot("__all__", 100, now=2e7)
    updates = []
    add = UserHistoryStore.add

    def counted_add(self, *args):
        updates.append(args)
        add(self, *args)

    monkeypatch.setattr(UserHistoryStore, "add", counted_add)
    gateway.observe(UserAction(2e7, user, video, ActionType.CLICK))
    assert updates == [(user, video, 2e7)]
    assert recommender.history.recent(user)[0] == video
    hot_after = gateway.router.fallback.tracker.hot("__all__", 100, now=2e7)
    assert dict(hot_after)[video] > dict(hot_before).get(video, 0.0)


def test_every_engagement_reaches_the_one_shared_state(monkeypatch):
    """The recommender and the Hot fallback share one model state, so the
    fallback's ``"__all__"`` hot table is one more table of the
    recommender's state, and every engagement writes into that state."""
    made: list[CountingState] = []

    def counting_state(*args):
        made.append(CountingState(*args))
        return made[-1]

    monkeypatch.setattr("repro.core.recommender.ModelState", counting_state)
    gateway = build_demo_gateway(
        GatewayConfig(port=0), rate=None, **DEMO_WORLD
    )
    (state,) = made
    recommender = gateway.router.recommender
    assert recommender.state is state
    assert "__all__" in state.hot
    users, videos = sorted(recommender.users), sorted(recommender.videos)
    for i in range(5):
        before = dict(state.hot)
        state.reset()
        gateway.observe(
            UserAction(2e7 + i, users[i], videos[i], ActionType.CLICK)
        )
        assert {"histories", "hot", "mu"} <= set(state.ops)
        assert state.hot["__all__"] is not before["__all__"]


def test_the_served_tracer_keeps_a_bounded_ring_of_spans():
    """Nothing in the served process reads finished spans, so the
    tracer keeps at most its default ring of them: 3,000 requests finish
    12,000 spans on this world (four each), and the oldest are dropped."""
    gateway = build_demo_gateway(
        GatewayConfig(port=0), rate=None, **DEMO_WORLD
    )
    users = sorted(gateway.router.recommender.users)
    for i in range(3000):
        response = gateway.router.handle(
            RecRequest(users[i % len(users)], timestamp=2e7)
        )
        assert response.ok
    tracer = gateway.obs.tracer
    assert len(tracer.finished_spans()) <= 10_000
    assert tracer.dropped_spans > 0


def test_fallback_hot_list_cannot_collide_with_a_demographic_group(
    tmp_path, capsys
):
    """The fallback keeps its counts in hot table ``"__all__"`` of the
    same state as the demographic groups' tables.  No group label is that
    name, and the checkpointed fallback serves what a fallback with a
    state of its own serves after the same actions."""
    config = paper_world_config(**DEMO_WORLD)
    labels = {GLOBAL_GROUP} | {
        f"{gender}|{age}"
        for gender in config.genders
        for age in config.age_bands
    }
    assert "__all__" not in labels

    live, _ = _durable_boot(tmp_path, capsys)
    assert {user.demographic_group for user in live.users.values()} <= labels
    (checkpoint,) = (tmp_path / "ckpt").glob("ckpt-*")
    state = pickle.loads((checkpoint / "state.pkl").read_bytes())
    assert "__all__" in state.hot and set(state.hot) - {"__all__"} <= labels

    alone = HotRecommender()
    for action in SyntheticWorld(config).generate_actions():
        alone.observe(action)
    restarted, out = _durable_gateway(tmp_path, capsys)
    assert "replayed=0 " in out
    for user in sorted(live.users):
        assert restarted.router.fallback.recommend_ids(
            user, n=10, now=2e7
        ) == alone.recommend_ids(user, n=10, now=2e7)


def _as_older_format(data_dir, fmt):
    """Label the boot checkpoint format ``fmt``, as an older build wrote
    it (a list of key-value store entries in ``entries.pkl``); return its
    ``wal_seq``.  The payload is never read: its format skips it."""
    (checkpoint,) = (data_dir / "ckpt").glob("ckpt-*")
    payload = pickle.dumps([("format", fmt)])
    (checkpoint / "state.pkl").rename(checkpoint / "entries.pkl")
    (checkpoint / "entries.pkl").write_bytes(payload)
    manifest_path = checkpoint / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(
        format=fmt,
        n_entries=1,
        sha256=hashlib.sha256(payload).hexdigest(),
    )
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return manifest["wal_seq"]


@pytest.mark.parametrize("fmt", [1, 2, 3])
def test_data_dir_with_an_older_format_checkpoint_replays_the_whole_log(
    tmp_path, capsys, fmt
):
    """A data dir an older build wrote, its boot sealed by a checkpoint of
    the key-value store the model state replaced — format 1 without the
    hot lists, format 2 with one ``simtable`` entry per video, format 3
    with one entry holding every list — still boots.  This build reads
    none of them, so the checkpoint is skipped: the restart replays the
    whole WAL and serves the live process's primary and fallback lists."""
    live, _ = _durable_gateway(tmp_path, capsys)
    serve = _ingest_tail(live.router.recommender, 30, live.observe)
    served = _served_lists(live, serve)
    wal_seq = _as_older_format(tmp_path, fmt)

    restarted, out = _durable_gateway(tmp_path, capsys)
    assert "checkpoint=none " in out
    assert f"replayed={wal_seq + 30} " in out
    assert _served_lists(restarted, serve) == served


@pytest.mark.parametrize("policy", ["always", "interval", "never"])
def test_fsync_policy_reaches_the_wal_and_the_checkpoint(
    tmp_path, capsys, monkeypatch, policy
):
    """``--fsync`` as ``--help`` states it: ``always`` syncs every WAL
    append and the boot checkpoint's two files, ``interval`` only the
    checkpoint's, ``never`` nothing."""
    calls = []
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
    live, _ = _durable_boot(tmp_path, capsys, fsync=policy)
    acked = sum(1 for _ in ActionWAL(tmp_path / "wal").replay())
    assert acked > 0
    at_boot = len(calls)
    if policy == "always":
        assert at_boot >= acked + 2
    else:
        assert at_boot == (2 if policy == "interval" else 0)

    user, video = sorted(live.users)[0], sorted(live.videos)[0]
    live.observe(UserAction(1e7, user, video, ActionType.CLICK))
    assert len(calls) - at_boot == (1 if policy == "always" else 0)


def test_unknown_fsync_policy_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="fsync"):
        build_demo_gateway(
            GatewayConfig(port=0),
            rate=None,
            n_users=10,
            n_videos=30,
            data_dir=tmp_path,
            fsync="sometimes",
        )
    assert not (tmp_path / "wal").exists()


def test_help_states_every_fsync_policy():
    parser = _build_parser()
    help_text = " ".join(parser.format_help().split())
    for name, meaning in FSYNC_POLICIES.items():
        assert f"{name}: {meaning}" in help_text
    assert parser.parse_args([]).fsync == "interval"
    with pytest.raises(SystemExit):
        parser.parse_args(["--fsync", "sometimes"])


#: The single-writer stress test's world: few users and videos, so
#: concurrent actions keep landing on the same keys.
STRESS_WORLD = dict(n_users=6, n_videos=20, seed=7)
#: More ``/ingest`` clients than cores, each posting this many actions.
STRESS_CLIENTS, STRESS_ACTIONS = 8, 25


def _model_state(recommender):
    """Pickled factor arenas, similar-video lists and histories, by part."""
    videos, users = sorted(recommender.videos), sorted(recommender.users)
    parts = {
        "user arena": stored_rows(recommender.model, "user"),
        "video arena": stored_rows(recommender.model, "video"),
        "similar-video lists": [
            sorted(raw_entries(recommender.table, video).items())
            for video in videos
        ],
        "histories": [
            history_entries(recommender.history, user) for user in users
        ],
    }
    return {name: pickle.dumps(part) for name, part in parts.items()}


def _post_actions(port, client, users, videos, statuses):
    """One keep-alive client posting its seeded actions to ``/ingest``."""
    rng = random.Random(client)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        for i in range(STRESS_ACTIONS):
            conn.request(
                "POST",
                "/ingest",
                body=json.dumps(
                    {
                        "timestamp": 1e7 + 60.0 * i + client,
                        "user_id": rng.choice(users),
                        "video_id": rng.choice(videos),
                        "action": rng.choice(("play", "click")),
                    }
                ),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            statuses.append(response.status)
    finally:
        conn.close()


def test_concurrent_ingest_has_one_writer_and_restarts_into_the_live_state(
    tmp_path, capsys
):
    """Paper §5: every key has one writer.  More ``/ingest`` clients than
    cores post actions on the same few users and videos at once, with the
    interpreter switching threads every microsecond.  Every ``observe``
    runs on one thread, so the WAL order is the apply order, and a restart
    on the data dir restores the live factor arenas, similar-video lists
    and histories byte for byte."""
    live, _ = _durable_gateway(tmp_path, capsys, world=STRESS_WORLD)
    recommender = live.router.recommender
    users, videos = sorted(recommender.users), sorted(recommender.videos)
    writers, statuses = set(), []
    observe = live.observe

    def observe_and_note_thread(action):
        writers.add(threading.get_ident())
        observe(action)

    live.observe = observe_and_note_thread
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with GatewayThread(live) as server:
            clients = [
                threading.Thread(
                    target=_post_actions,
                    args=(server.port, client, users, videos, statuses),
                )
                for client in range(STRESS_CLIENTS)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in clients)
    finally:
        sys.setswitchinterval(switch_interval)

    assert statuses == [202] * (STRESS_CLIENTS * STRESS_ACTIONS)
    assert len(writers) == 1
    restarted, out = _durable_gateway(tmp_path, capsys, world=STRESS_WORLD)
    assert f"replayed={STRESS_CLIENTS * STRESS_ACTIONS} " in out
    live_state = _model_state(recommender)
    restored = _model_state(restarted.router.recommender)
    assert [part for part in live_state if restored[part] != live_state[part]] == []
