"""Model-based test of the KV stack: every store is a plain ``dict``.

One hypothesis state machine drives the whole :class:`~repro.kvstore.KVStore`
contract (``get`` / ``update`` / ``snapshot_entries`` →
``restore_entries``) against a dict, and after every step compares the
full contents.  It runs over the base store, the stack ``repro-serve``
builds (instrumentation over memory), and the test wrappers other tests
put in its place: the recording store, under instrumentation as the
traffic tests stack it, and the fault-injecting store with no faults
scheduled.

A second machine drives the persistence path — the write-ahead log plus
full checkpoints — through appends, checkpoints, crashes that tear the
log's tail and leave a half-applied action in the store, reopens and
recoveries: the recovered store must equal a scalar replay of the acked
prefix, and the log's ``last_seq`` never goes backwards.

Tier-1 draws the ``deterministic`` profile (``tests/conftest.py``); the
scheduled ``explore`` CI job runs ``tests/properties`` with fresh draws.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.data.schema import ActionType, UserAction
from repro.kvstore import InMemoryKVStore
from repro.reliability import ActionWAL, CheckpointManager, RecoveryManager
from tests.support.faults import FlakyKVStore
from tests.support.kv import RecordingKVStore, contents
from tests.support.obs import deterministic_obs

_ABSENT = "<absent>"

_KEYS = ["a", "b", "c", "k3", ("t", 1), ("t", 2), ("left", "a"), ("right", "a")]
keys = st.sampled_from(_KEYS)
values = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.lists(st.integers(min_value=0, max_value=3), max_size=3),
)


class KVStoreMachine(RuleBasedStateMachine):
    """Subclasses say what to build; ``build()`` returns the store under
    test."""

    def build(self):
        raise NotImplementedError

    def __init__(self) -> None:
        super().__init__()
        self.store = self.build()
        self.model: dict = {}

    # -- single-key operations ---------------------------------------------

    @rule(key=keys, value=values)
    def replace(self, key, value):
        """An update that ignores what it is handed is a put."""
        assert self.store.update(key, lambda _old: value) == value
        assert self.store.get(key, _ABSENT) == value  # read-your-writes
        self.model[key] = value

    @rule(key=keys, delta=st.integers(0, 9), default=values)
    def update(self, key, delta, default):
        def fn(current):
            # Keeps what it was handed (flattened, so values stay small).
            kept = current[1] if isinstance(current, tuple) else current
            return (delta, kept)

        expected = fn(self.model.get(key, default))
        assert self.store.update(key, fn, default=default) == expected
        assert self.store.get(key, _ABSENT) == expected
        self.model[key] = expected

    @rule(key=keys)
    def get(self, key):
        assert self.store.get(key, _ABSENT) == self.model.get(key, _ABSENT)

    # -- checkpoint round trip ---------------------------------------------

    @rule()
    def snapshot_restores_into_a_fresh_store(self):
        entries = self.store.snapshot_entries()
        fresh = self.build()
        assert fresh.restore_entries(entries) == len(self.model)
        assert contents(fresh) == self.model

    @rule(items=st.lists(st.tuples(keys, values), max_size=4))
    def restore_rolls_back_later_writes(self, items):
        """Restoring a snapshot replaces the contents: keys written after
        it are gone again."""
        entries = self.store.snapshot_entries()
        for key, value in items:
            self.store.update(key, lambda _old, value=value: value)
        assert self.store.restore_entries(entries) == len(self.model)
        assert contents(self.store) == self.model

    # -- the dict is the specification -------------------------------------

    @invariant()
    def contents_match_the_dict(self):
        entries = self.store.snapshot_entries()
        assert len(entries) == len(self.model)
        assert contents(self.store) == self.model
        for key in _KEYS:
            assert self.store.get(key, _ABSENT) == self.model.get(key, _ABSENT)


class InMemoryMachine(KVStoreMachine):
    def build(self):
        return InMemoryKVStore()


class ServedMemoryStackMachine(KVStoreMachine):
    """The store ``repro-serve`` builds, with or without ``--data-dir``."""

    def build(self):
        obs = deterministic_obs()
        return obs.instrument_store(InMemoryKVStore())


class RecordedServedStackMachine(KVStoreMachine):
    """The served stack with a recorder under it, as the traffic tests
    build it."""

    def build(self):
        obs = deterministic_obs()
        return obs.instrument_store(RecordingKVStore(InMemoryKVStore()))


class FaultFreeFlakyMachine(KVStoreMachine):
    """The fault-injecting store with no faults scheduled: a pure
    forwarder."""

    def build(self):
        return FlakyKVStore(InMemoryKVStore())


# -- the persistence path: WAL + full checkpoints ----------------------------

_USERS = ["u1", "u2", "u3"]
_VIDEOS = ["v1", "v2"]


def _apply_updates(action: UserAction):
    """The two KV updates one action makes, in order (a crash may land
    between them)."""
    user = action.user_id
    return [
        (("plays", user), lambda n: n + 1, 0),
        (("seen", action.video_id), lambda users: users + (user,), ()),
    ]


def _apply(store, action: UserAction) -> None:
    for key, fn, default in _apply_updates(action):
        store.update(key, fn, default=default)


def _scalar_replay(actions: list[UserAction]) -> dict:
    """The state an uninterrupted run over ``actions`` leaves: a dict fold."""
    state: dict = {}
    for action in actions:
        plays = ("plays", action.user_id)
        seen = ("seen", action.video_id)
        state[plays] = state.get(plays, 0) + 1
        state[seen] = state.get(seen, ()) + (action.user_id,)
    return state


class WALCheckpointMachine(RuleBasedStateMachine):
    """One process's life over a data dir: it appends (WAL first, then the
    store), checkpoints the store in full, and crashes — the crash may tear
    the record it was writing, in the newest segment or in a segment it had
    just rotated to, and may leave that action half-applied in the store.
    A restart reopens the log and recovers into the stale store or a fresh
    one."""

    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="wal-machine-"))
        self.checkpoints = CheckpointManager(
            self.root / "ckpt", retain=2, fsync=False
        )
        self.acked: list[UserAction] = []
        self.highest_seq = 0
        self.store = InMemoryKVStore()
        self.consistent = True  # the store holds exactly the acked prefix
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
    @rule(user=st.sampled_from(_USERS), video=st.sampled_from(_VIDEOS))
    def append(self, user, video):
        action = self._next_action(user, video)
        assert self.wal.append(action) == len(self.acked) + 1
        _apply(self.store, action)
        self.acked.append(action)

    @precondition(lambda self: self.wal is not None and self.consistent)
    @rule()
    def checkpoint(self):
        info = self.recovery.checkpoint(self.store)
        assert info.wal_seq == len(self.acked)

    @precondition(lambda self: self.wal is not None)
    @rule(
        user=st.sampled_from(_USERS),
        video=st.sampled_from(_VIDEOS),
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
            key, fn, default = _apply_updates(action)[0]
            self.store.update(key, fn, default=default)
            self.consistent = False

    @precondition(lambda self: self.wal is None)
    @rule()
    def reopen(self):
        self._open()
        self.consistent = False  # recovery decides what the store holds

    @precondition(lambda self: self.wal is not None)
    @rule(fresh=st.booleans())
    def recover(self, fresh):
        if fresh:
            self.store = InMemoryKVStore()
        report = self.recovery.recover(
            self.store, lambda action: _apply(self.store, action)
        )
        assert report.last_seq == len(self.acked)
        assert contents(self.store) == _scalar_replay(self.acked)
        self.consistent = True

    @invariant()
    def last_seq_never_goes_backwards(self):
        if self.wal is not None:
            assert self.wal.last_seq == len(self.acked) >= self.highest_seq
            self.highest_seq = self.wal.last_seq

    @invariant()
    def consistent_store_equals_the_replay(self):
        if self.consistent:
            assert contents(self.store) == _scalar_replay(self.acked)


def _case(machine):
    machine.TestCase.settings = settings(
        max_examples=25, stateful_step_count=25, deadline=None
    )
    return machine.TestCase


TestInMemory = _case(InMemoryMachine)
TestServedMemoryStack = _case(ServedMemoryStackMachine)
TestRecordedServedStack = _case(RecordedServedStackMachine)
TestFaultFreeFlaky = _case(FaultFreeFlakyMachine)
TestWALCheckpoint = _case(WALCheckpointMachine)
