"""Model-based test of the model state: every value is plain data.

One hypothesis state machine writes a :class:`~repro.core.ModelState`
through its components — factor puts, ``mu`` folds, history pushes,
hot-table records, similar-list inserts — and mirrors each write in a
dict reference.  After every step the state, read as plain data, must
equal the reference.  A snapshot is a pickled state: restored into a fresh
state it reads as the reference did when it was taken, and restored in
place it rolls back every later write.  The machine runs over the plain
state and over the stand-ins other tests put in its place: the counting
state, and the fault injector with no faults scheduled.

A second machine drives the persistence path — the write-ahead log plus
full checkpoints — through appends, checkpoints, crashes that tear the
log's tail and leave a half-applied action in the state, reopens and
recoveries: the recovered state must equal a scalar replay of the acked
prefix, and the log's ``last_seq`` never goes backwards.

Tier-1 draws the ``deterministic`` profile (``tests/conftest.py``); the
scheduled ``explore`` CI job runs ``tests/properties`` with fresh draws.
"""

from __future__ import annotations

import copy
import pickle
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.config import MFConfig, SimilarityConfig
from repro.core import MFModel, ModelState, SimilarVideoTable, UserHistoryStore
from repro.core.demographic import HotVideoTracker
from repro.data.schema import ActionType, UserAction, Video
from repro.reliability import ActionWAL, CheckpointManager, RecoveryManager
from tests.support.faults import FlakyState
from tests.support.state import CountingState, plain

F = 2
_IDS = ["a", "b", "c"]
_GROUPS = ["g1", "__all__"]
ids = st.sampled_from(_IDS)
small = st.integers(min_value=-4, max_value=4).map(float)
_VIDEOS = {vid: Video(vid, "film", 100.0) for vid in _IDS}
_HISTORY_MAX = 3


class _Components:
    """Every component that writes the state, built over one state."""

    def __init__(self, state: ModelState) -> None:
        self.model = MFModel(MFConfig(f=F), state)
        self.history = UserHistoryStore(state, max_items=_HISTORY_MAX)
        # Records all at one time, so no score decays; nothing is evicted.
        self.hot = HotVideoTracker(max_tracked=10, state=state)
        self.table = SimilarVideoTable(
            _VIDEOS, self.model, config=SimilarityConfig(table_size=10)
        )


def _empty() -> dict:
    return plain(ModelState(F))


class ModelStateMachine(RuleBasedStateMachine):
    """Subclasses say which state to build."""

    def build(self) -> ModelState:
        return ModelState(F)

    def __init__(self) -> None:
        super().__init__()
        self.state = self.build()
        self.parts = _Components(self.state)
        self.reference = _empty()
        self.snapshot: tuple[bytes, dict] | None = None

    # -- updates, each mirrored in the reference ---------------------------

    @rule(kind=st.sampled_from(["users", "videos"]), entity=ids, x=small, bias=small)
    def put_factors(self, kind, entity, x, bias):
        vector = np.array([x, -x])
        if kind == "users":
            self.parts.model.put_user(entity, vector, bias)
        else:
            self.parts.model.put_video(entity, vector, bias)
        self.reference[kind][entity] = ((x, -x), bias)

    @rule(rating=small)
    def fold_mu(self, rating):
        self.parts.model.observe_rating(rating)
        total, count = self.reference["mu"]
        self.reference["mu"] = (total + rating, count + 1)

    @rule(user=ids, video=ids, stamp=small)
    def push_history(self, user, video, stamp):
        self.parts.history.add(user, video, stamp)
        entries = self.reference["histories"].get(user, [])
        kept = [(video, stamp)] + [e for e in entries if e[0] != video]
        self.reference["histories"][user] = kept[:_HISTORY_MAX]

    @rule(group=st.sampled_from(_GROUPS), video=ids, weight=small)
    def record_hot(self, group, video, weight):
        self.parts.hot.record(group, video, weight, now=1.0)
        table = self.reference["hot"].setdefault(group, {})
        score, _ = table.get(video, (0.0, 1.0))
        table[video] = (score + weight, 1.0)

    @rule(video=ids, other=ids, raw=small, stamp=small)
    def insert_similar(self, video, other, raw, stamp):
        self.parts.table.insert_scored(video, other, raw, stamp)
        self.reference["lists"].setdefault(video, {})[other] = (raw, stamp)

    # -- snapshots ---------------------------------------------------------

    @rule()
    def take_snapshot(self):
        self.snapshot = (pickle.dumps(self.state), copy.deepcopy(self.reference))

    @precondition(lambda self: self.snapshot is not None)
    @rule()
    def snapshot_restores_into_a_fresh_state(self):
        payload, reference = self.snapshot
        fresh = self.build()
        _Components(fresh)  # built before the restore, as recovery builds
        fresh.restore(pickle.loads(payload))
        assert plain(fresh) == reference

    @precondition(lambda self: self.snapshot is not None)
    @rule()
    def restore_rolls_back_later_writes(self):
        payload, reference = self.snapshot
        self.state.restore(pickle.loads(payload))
        self.reference = copy.deepcopy(reference)

    @rule()
    def restore_an_empty_state(self):
        self.state.restore(ModelState(F))
        self.reference = _empty()

    # -- the dict is the specification -------------------------------------

    @invariant()
    def state_matches_the_reference(self):
        assert plain(self.state) == self.reference


# -- the persistence path: WAL + full checkpoints ----------------------------

_USERS = ["u1", "u2", "u3"]
_VIDEO_IDS = ["v1", "v2"]


def _apply_steps(state: ModelState, action: UserAction):
    """The two writes one action makes, in order (a crash may land
    between them)."""
    return [
        lambda: UserHistoryStore(state).add(
            action.user_id, action.video_id, action.timestamp
        ),
        lambda: MFModel(state=state).observe_rating(1.0),
    ]


def _apply(state: ModelState, action: UserAction) -> None:
    for step in _apply_steps(state, action):
        step()


def _scalar_replay(actions: list[UserAction]) -> dict:
    """What an uninterrupted run over ``actions`` leaves: a dict fold."""
    histories: dict = {}
    for action in actions:
        entries = histories.get(action.user_id, [])
        histories[action.user_id] = [(action.video_id, action.timestamp)] + [
            e for e in entries if e[0] != action.video_id
        ]
    return {"histories": histories, "mu": (float(len(actions)), len(actions))}


def _written(state: ModelState) -> dict:
    return {"histories": dict(state.histories), "mu": state.mu}


class WALCheckpointMachine(RuleBasedStateMachine):
    """One process's life over a data dir: it appends (WAL first, then the
    state), checkpoints the state in full, and crashes — the crash may
    tear the record it was writing, in the newest segment or in a segment
    it had just rotated to, and may leave that action half-applied in the
    state.  A restart reopens the log and recovers into the stale state or
    a fresh one."""

    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="wal-machine-"))
        self.checkpoints = CheckpointManager(
            self.root / "ckpt", retain=2, fsync=False
        )
        self.acked: list[UserAction] = []
        self.highest_seq = 0
        self.state = ModelState()
        self.consistent = True  # the state holds exactly the acked prefix
        self._open()

    def _open(self) -> None:
        self.wal = ActionWAL(self.root / "wal", segment_max_records=3)
        self.recovery = RecoveryManager(self.checkpoints, self.wal)

    def teardown(self) -> None:
        if self.wal is not None:
            self.wal.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def _next_action(self, user: str, video: str) -> UserAction:
        seq = len(self.acked) + 1
        return UserAction(float(seq), user, video, ActionType.PLAY, 30.0 * seq)

    @precondition(lambda self: self.wal is not None and self.consistent)
    @rule(user=st.sampled_from(_USERS), video=st.sampled_from(_VIDEO_IDS))
    def append(self, user, video):
        action = self._next_action(user, video)
        assert self.wal.append(action) == len(self.acked) + 1
        _apply(self.state, action)
        self.acked.append(action)

    @precondition(lambda self: self.wal is not None and self.consistent)
    @rule()
    def checkpoint(self):
        info = self.recovery.checkpoint(self.state)
        assert info.wal_seq == len(self.acked)

    @precondition(lambda self: self.wal is not None)
    @rule(
        user=st.sampled_from(_USERS),
        video=st.sampled_from(_VIDEO_IDS),
        torn=st.integers(min_value=-1, max_value=40),
        new_segment=st.booleans(),
        half_applied=st.booleans(),
    )
    def crash(self, user, video, torn, new_segment, half_applied):
        """Kill the process mid-append: ``torn`` bytes of the next record
        reach the disk (none when negative), never its newline."""
        self.wal.close()
        self.wal = None
        action = self._next_action(user, video)
        if torn >= 0:
            record = f"{len(self.acked) + 1}\t{action.to_log_line()}"
            segments = sorted((self.root / "wal").glob("wal-*.log"))
            path = (
                self.root / "wal" / f"wal-{len(self.acked) + 1:012d}.log"
                if new_segment or not segments
                else segments[-1]
            )
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(record[: min(torn, len(record))])
        if half_applied:
            _apply_steps(self.state, action)[0]()
            self.consistent = False

    @precondition(lambda self: self.wal is None)
    @rule()
    def reopen(self):
        self._open()
        self.consistent = False  # recovery decides what the state holds

    @precondition(lambda self: self.wal is not None)
    @rule(fresh=st.booleans())
    def recover(self, fresh):
        if fresh:
            self.state = ModelState()
        report = self.recovery.recover(
            self.state, lambda action: _apply(self.state, action)
        )
        assert report.last_seq == len(self.acked)
        assert _written(self.state) == _scalar_replay(self.acked)
        self.consistent = True

    @invariant()
    def last_seq_never_goes_backwards(self):
        if self.wal is not None:
            assert self.wal.last_seq == len(self.acked) >= self.highest_seq
            self.highest_seq = self.wal.last_seq

    @invariant()
    def consistent_state_equals_the_replay(self):
        if self.consistent:
            assert _written(self.state) == _scalar_replay(self.acked)


def _case(machine):
    machine.TestCase.settings = settings(
        max_examples=25, stateful_step_count=25, deadline=None
    )
    return machine.TestCase


class CountingStateMachine(ModelStateMachine):
    def build(self) -> ModelState:
        return CountingState(F)


class FaultFreeFlakyMachine(ModelStateMachine):
    def build(self) -> ModelState:
        return FlakyState(0, F)


TestModelState = _case(ModelStateMachine)
TestCountingState = _case(CountingStateMachine)
TestFaultFreeFlaky = _case(FaultFreeFlakyMachine)
TestWALCheckpoint = _case(WALCheckpointMachine)
