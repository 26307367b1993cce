"""Real SIGKILL crash injection against the persistence path (WAL + full
checkpoints).

A child process (``_crash_child.py``) writes under ``fsync`` guarantees
and acks each durable operation on stdout; the parent kills it with
``SIGKILL`` mid-write — no atexit, no flushing, no mercy — then recovers
from the surviving files and checks:

* every acked WAL record replays after reopen, with its exact action;
* a torn WAL tail is cut by the next open, so kill → reopen → append →
  kill → reopen never accumulates damage nor loses an acked record;
* a recovered ``RealtimeRecommender`` serves the same top-N as a clean
  process that saw the same acked prefix;
* a killed ``repro-serve --data-dir`` restarts from its boot checkpoint
  plus exactly the actions it acked since, and serves the same lists.
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import ModelState
from repro.core.recommender import RealtimeRecommender
from repro.data import SyntheticWorld
from repro.data.synthetic import WorldConfig
from repro.reliability import ActionWAL, CheckpointManager, RecoveryManager

from ._crash_child import SEGMENT_MAX_RECORDS, WORLD, wal_action

CHILD = Path(__file__).with_name("_crash_child.py")


def _child_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn(mode, root, *extra):
    return subprocess.Popen(
        [sys.executable, str(CHILD), mode, str(root), *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_child_env(),
    )


def _read_acks_then_kill(proc, min_acks, timeout_s=60.0):
    """Wait for ``min_acks`` acked ops, then SIGKILL mid-write."""
    acked = []
    deadline = time.monotonic() + timeout_s
    for line in proc.stdout:
        if line.startswith("ACK "):
            acked.append(int(line.split()[1]))
            if len(acked) >= min_acks:
                break
        elif line.startswith("DONE"):
            raise AssertionError(
                "child finished before the kill — raise its --limit"
            )
        if time.monotonic() > deadline:
            raise AssertionError(f"child too slow: {len(acked)} acks")
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=10)
    proc.stdout.close()
    proc.stderr.close()
    assert proc.returncode == -signal.SIGKILL
    return acked


def _assert_every_acked_record_replays(wal_root, acked):
    """Reopen the log: it replays ``1..last_seq`` with no gap, each record
    the exact action the child logged, and ``last_seq`` covers every ack."""
    replayed = list(ActionWAL(wal_root).replay())
    assert [seq for seq, _ in replayed] == list(range(1, len(replayed) + 1))
    assert len(replayed) >= max(acked), "an acked WAL record was lost"
    for seq, action in replayed:
        assert action == wal_action(seq), f"record {seq} replays wrong"


def _tear(wal_root, new_segment):
    """Leave a torn next record, as a crash mid-append would: in the
    newest segment, or alone in a segment the crash had just rotated to."""
    with ActionWAL(wal_root) as wal:
        seq = wal.last_seq + 1
        newest = wal.segments()[-1]
    record = f"{seq}\t{wal_action(seq).to_log_line()}"
    path = wal_root / f"wal-{seq:012d}.log" if new_segment else newest
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(record[: len(record) // 2])


@pytest.mark.slow
class TestKVCrash:
    def test_no_acked_write_lost_to_sigkill(self, tmp_path):
        proc = _spawn("kv", tmp_path)
        acked = _read_acks_then_kill(proc, min_acks=200)
        assert acked == list(range(1, len(acked) + 1))
        _assert_every_acked_record_replays(tmp_path / "wal", acked)

    def test_repeated_kill_reopen_cycles(self, tmp_path):
        """Three kill → reopen → append rounds on one log, with a torn
        record left between rounds: first in the newest segment (the next
        open starts a new segment, so uncut bytes would become interior),
        then alone in a fresh segment (whose name the next open reuses).
        Every acked record of every round still replays."""
        all_acked = []
        for round_ in range(3):
            if round_:
                _tear(tmp_path / "wal", new_segment=round_ == 2)
            proc = _spawn("kv", tmp_path)
            acked = _read_acks_then_kill(proc, min_acks=80 + 40 * round_)
            assert not all_acked or acked[0] > all_acked[-1]
            all_acked.extend(acked)
        _assert_every_acked_record_replays(tmp_path / "wal", all_acked)


@pytest.mark.slow
class TestRecommenderCrash:
    def test_recovered_recommender_serves_identical_top_n(self, tmp_path):
        proc = _spawn("rec", tmp_path, "--checkpoint-every", "60")
        acked = _read_acks_then_kill(proc, min_acks=150, timeout_s=120.0)
        max_acked = max(acked)

        # Recover from the surviving files exactly as a restarted service
        # would: restore the last full checkpoint into a fresh state, then
        # replay the WAL suffix through a fresh recommender.
        state = ModelState()
        wal = ActionWAL(
            tmp_path / "wal", segment_max_records=SEGMENT_MAX_RECORDS
        )
        recovery = RecoveryManager(
            CheckpointManager(tmp_path / "ckpt"), wal
        )
        world = SyntheticWorld(WorldConfig(**WORLD))
        recovered = RealtimeRecommender(
            world.videos, users=world.users, state=state, wal=wal
        )
        report = recovery.recover(state, recovered.observe)

        # Every acked action was WAL-durable before it was acked.
        assert report.last_seq >= max_acked
        # 150 acks span the checkpoints taken after actions 60 and 120.
        assert report.checkpoint is not None
        assert report.checkpoint.wal_seq >= 120

        # A clean process that saw the same prefix must agree on top-N.
        actions = world.generate_actions()[: report.last_seq]
        clean = RealtimeRecommender(
            world.videos, users=world.users, state=ModelState()
        )
        clean.observe_stream(actions)

        now = actions[-1].timestamp + 60.0
        users = sorted({a.user_id for a in actions[:80]})[:10]
        assert users
        for user in users:
            assert recovered.recommend_ids(user, n=10, now=now) == (
                clean.recommend_ids(user, n=10, now=now)
            ), f"post-crash top-N diverged for {user}"


def _spawn_server(data_dir):
    """``repro-serve --data-dir`` on an ephemeral port; returns the process,
    the port and everything it printed while booting."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serving.cli", "--port", "0",
            "--users", "10", "--videos", "30", "--seed", "7",
            "--data-dir", str(data_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=_child_env(),
    )
    boot = []
    deadline = time.monotonic() + 120.0
    for line in proc.stdout:
        boot.append(line)
        listening = re.search(r"listening on http://[^:]+:(\d+)", line)
        if listening:
            return proc, int(listening.group(1)), "".join(boot)
        if time.monotonic() > deadline:
            break
    proc.kill()
    proc.wait(timeout=10)
    raise AssertionError(f"server never listened: {''.join(boot)!r}")


def _post(conn, path, doc):
    conn.request(
        "POST", path, body=json.dumps(doc),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"null")


@pytest.mark.slow
class TestServerCrash:
    N_TAIL = 120

    def test_killed_server_restarts_from_checkpoint_plus_tail(self, tmp_path):
        users = [f"u{i}" for i in range(10)]
        videos = [f"v{i}" for i in range(30)]
        now = 1e7 + 600.0 * (self.N_TAIL + 1)

        def top_tens(port):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                lists = {}
                for user in users:
                    status, doc = _post(
                        conn, "/recommend",
                        {"user_id": user, "n": 10, "timestamp": now},
                    )
                    assert status == 200
                    lists[user] = doc["video_ids"]
                return lists
            finally:
                conn.close()

        proc, port, boot = _spawn_server(tmp_path)
        try:
            assert "recovered" not in boot
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            for i in range(self.N_TAIL):
                status, _ = _post(
                    conn, "/ingest",
                    {
                        "timestamp": 1e7 + 600.0 * i,
                        "user_id": users[i % len(users)],
                        "video_id": videos[(7 * i) % len(videos)],
                        "action": "play" if i % 3 else "click",
                        "view_time": 30.0 * (i % 5),
                    },
                )
                assert status == 202  # acked: WAL-appended and applied
            conn.close()
            served = top_tens(port)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            proc.stdout.close()

        proc, port, boot = _spawn_server(tmp_path)
        try:
            assert "checkpoint=ckpt-" in boot
            assert f"replayed={self.N_TAIL} " in boot
            assert top_tens(port) == served
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            proc.stdout.close()
