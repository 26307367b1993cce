"""Victim process for the crash-injection suite (run via subprocess).

Two modes, both writing under a data root the parent owns and acking
progress on stdout (one line per completed, durable operation).  The
parent SIGKILLs this process at an arbitrary point — there is no signal
handler and no cleanup — then verifies that everything acked before the
kill is recoverable from disk.

``kv`` mode::

    python _crash_child.py kv <root> [--limit N]

Opens the ``ActionWAL`` under ``<root>/wal`` with ``fsync=True`` (cutting
any torn tail a previous victim left), appends ``wal_action(seq)`` for the
next sequence numbers, and prints ``ACK <seq>`` after each append returns —
i.e. after the record is fsynced.

``rec`` mode::

    python _crash_child.py rec <root> [--limit N] [--checkpoint-every K]

Feeds the deterministic synthetic action stream through a
``RealtimeRecommender`` over an in-memory model state with a WAL
(``fsync=True``), taking a full checkpoint every K actions, printing
``ACK <seq>`` after each observe.  The WAL append happens (and is
fsynced) *before* the model applies the action, so an acked sequence
number is always replayable.
"""

import argparse
import sys
from pathlib import Path

from repro.core import ModelState
from repro.core.recommender import RealtimeRecommender
from repro.data import ActionType, SyntheticWorld, UserAction
from repro.data.synthetic import WorldConfig
from repro.reliability import ActionWAL, CheckpointManager, RecoveryManager

# The parent builds the identical world to verify against.
WORLD = dict(n_users=60, n_videos=80, n_types=5, days=3, seed=42)
SEGMENT_MAX_RECORDS = 64


def wal_action(seq: int) -> UserAction:
    """The action ``kv`` mode logs as record ``seq``."""
    return UserAction(
        float(seq), f"u{seq}", f"v{seq % 13}", ActionType.PLAY, 0.5 * seq
    )


def _ack(n: int) -> None:
    sys.stdout.write(f"ACK {n}\n")
    sys.stdout.flush()


def run_kv(root: Path, limit: int) -> None:
    wal = ActionWAL(
        root / "wal", segment_max_records=SEGMENT_MAX_RECORDS, fsync=True
    )
    for _ in range(limit):
        seq = wal.last_seq + 1
        assert wal.append(wal_action(seq)) == seq
        _ack(seq)


def run_rec(root: Path, limit: int, checkpoint_every: int) -> None:
    world = SyntheticWorld(WorldConfig(**WORLD))
    actions = world.generate_actions()[:limit]

    state = ModelState()
    wal = ActionWAL(
        root / "wal", segment_max_records=SEGMENT_MAX_RECORDS, fsync=True
    )
    recovery = RecoveryManager(CheckpointManager(root / "ckpt"), wal)
    recommender = RealtimeRecommender(
        world.videos, users=world.users, state=state, wal=wal
    )
    for count, action in enumerate(actions, start=1):
        recommender.observe(action)
        _ack(count)
        if count % checkpoint_every == 0:
            recovery.checkpoint(state)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("kv", "rec"))
    parser.add_argument("root", type=Path)
    parser.add_argument("--limit", type=int, default=1_000_000)
    parser.add_argument("--checkpoint-every", type=int, default=60)
    args = parser.parse_args()
    if args.mode == "kv":
        run_kv(args.root, args.limit)
    else:
        run_rec(args.root, args.limit, args.checkpoint_every)
    sys.stdout.write("DONE\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
