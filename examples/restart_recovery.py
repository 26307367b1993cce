"""Crash and restart with durable recovery — no acked action lost.

Run:  python examples/restart_recovery.py

What it shows: a serving process ingests a live action stream with its
whole model — demographic hot lists included — in its in-memory
state, a write-ahead log in front of it and a full checkpoint of the
state every 100 actions.  The WAL append is what
acks an action.  This script SIGKILLs that process mid-ingest — no
shutdown hook, so every model write since the last checkpoint dies with
it — then restarts: the newest checkpoint is restored into a fresh state,
the WAL suffix replays through a fresh recommender, and the revived
process serves exactly the same top-N as an uninterrupted run over the
same acked prefix.
"""

import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.core import ModelState
from repro.core.recommender import RealtimeRecommender
from repro.data import SyntheticWorld
from repro.data.synthetic import WorldConfig
from repro.reliability import ActionWAL, CheckpointManager, RecoveryManager

WORLD = dict(n_users=60, n_videos=80, n_types=5, days=3, seed=11)
KILL_AFTER = 400  # acked actions before the SIGKILL
CHECKPOINT_EVERY = 100


def build_state(root: Path):
    state = ModelState()
    wal = ActionWAL(root / "wal", fsync=True)
    recovery = RecoveryManager(CheckpointManager(root / "ckpt"), wal)
    return state, wal, recovery


def ingest(root: Path) -> None:
    """Child mode: stream actions durably, ack each one, never exit cleanly."""
    world = SyntheticWorld(WorldConfig(**WORLD))
    state, wal, recovery = build_state(root)
    recommender = RealtimeRecommender(
        world.videos, users=world.users, state=state, wal=wal
    )
    for count, action in enumerate(world.generate_actions(), start=1):
        recommender.observe(action)
        print(f"ACK {count}", flush=True)
        if count % CHECKPOINT_EVERY == 0:
            recovery.checkpoint(state)


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="repro-restart-"))
    print(f"data root: {root}")

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, __file__, "--ingest", str(root)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    acked = 0
    for line in child.stdout:
        if line.startswith("ACK "):
            acked = int(line.split()[1])
            if acked >= KILL_AFTER:
                break
    os.kill(child.pid, signal.SIGKILL)
    child.wait()
    child.stdout.close()
    print(f"ingested {acked} acked actions, then SIGKILL (rc={child.returncode})")

    # ---- Restart: recover from the surviving files ---------------------
    world = SyntheticWorld(WorldConfig(**WORLD))
    state, wal, recovery = build_state(root)
    recovered = RealtimeRecommender(
        world.videos, users=world.users, state=state, wal=wal
    )
    report = recovery.recover(state, recovered.observe)
    print(
        f"recovered: checkpoint seq={report.checkpoint.wal_seq if report.checkpoint else '-'}, "
        f"replayed {report.replayed} WAL records, last seq {report.last_seq}"
    )
    assert report.last_seq >= acked, "an acked action went missing!"

    # ---- Referee: a clean process that saw the same prefix -------------
    actions = world.generate_actions()[: report.last_seq]
    clean = RealtimeRecommender(
        world.videos, users=world.users, state=ModelState()
    )
    clean.observe_stream(actions)

    now = actions[-1].timestamp + 60.0
    users = sorted({a.user_id for a in actions})[:8]
    for user in users:
        got = recovered.recommend_ids(user, n=5, now=now)
        want = clean.recommend_ids(user, n=5, now=now)
        match = "ok" if got == want else "MISMATCH"
        print(f"  {user}: {got} [{match}]")
        assert got == want, f"top-N diverged for {user}"
    print(f"\nall {len(users)} users serve identical top-5 after the crash.")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--ingest":
        ingest(Path(sys.argv[2]))
    else:
        main()
