"""Crash recovery: restore the last checkpoint, replay the WAL tail.

**The WAL is the durability point.**  Every action is WAL-appended before
it mutates model state, and that append is what acks it; the in-memory
:class:`~repro.core.state.ModelState` is a materialised view of the log,
written to disk only as a full checkpoint.  So recovery never trusts what
the state holds *now*: it rolls it back to the last checkpoint — or
empties it when there is none — and replays exactly the actions logged
after it.  An action whose crash
interrupted its (non-atomic) application is replayed in full against the
*checkpoint* state, so no partial update survives; checkpoints are only
taken between actions, so none captures a partial one either.

All model state lives in the ``ModelState`` — MF vectors and biases,
``mu``, user histories, similar-video lists, hot tables — so restoring the
checkpoint and replaying the actions after its ``wal_seq`` is all of
recovery.  Trainer counters and metrics restart from zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.state import ModelState
from ..data.schema import UserAction
from .checkpoint import CheckpointInfo, CheckpointManager
from .wal import ActionWAL


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What one :meth:`RecoveryManager.recover` call did."""

    checkpoint: CheckpointInfo | None
    replayed: int
    last_seq: int


class RecoveryManager:
    """Couples a :class:`CheckpointManager` with an :class:`ActionWAL`.

    One instance per durable root; the same object serves both the running
    system (periodic :meth:`checkpoint` calls) and the post-crash restart
    (:meth:`recover` into a fresh state).
    """

    def __init__(self, checkpoints: CheckpointManager, wal: ActionWAL) -> None:
        self.checkpoints = checkpoints
        self.wal = wal

    def checkpoint(
        self, state: ModelState, created_at: float = 0.0
    ) -> CheckpointInfo:
        """Snapshot ``state`` in full, tagged with the WAL's current position.

        Call between actions (never mid-action): the snapshot must be a
        consistent cut of the state that corresponds exactly to "all
        actions up to ``wal.last_seq`` applied".
        """
        return self.checkpoints.create(
            state, wal_seq=self.wal.last_seq, created_at=created_at
        )

    def recover(
        self,
        state: ModelState,
        apply: Callable[[UserAction], object],
    ) -> RecoveryReport:
        """Rebuild ``state`` in place; return what happened.

        ``apply`` re-feeds one logged action through the model — typically
        ``OnlineTrainer.process`` or ``RealtimeRecommender.observe`` — and
        gets exactly the actions logged after the restored checkpoint's
        ``wal_seq``, in log order.  The WAL is suspended for the duration
        so an ``apply`` that itself logs to this WAL does not duplicate
        records.

        Restoring a checkpoint replaces ``state``'s values.  With nothing
        to restore — no checkpoint yet (a crash during the first boot), or
        only checkpoints of an older format — the state is emptied and the
        whole WAL (every acked action from sequence 1) is replayed; no WAL
        segment is ever truncated, so that is the full history.
        """
        info = self.checkpoints.restore_latest(state)
        if info is None:
            state.restore(ModelState(state.users.f))
        after_seq = info.wal_seq if info is not None else 0
        replayed = 0
        last_seq = after_seq
        with self.wal.suspend():
            for seq, action in self.wal.replay(after_seq=after_seq):
                apply(action)
                replayed += 1
                last_seq = seq
        return RecoveryReport(
            checkpoint=info,
            replayed=replayed,
            last_seq=last_seq,
        )
