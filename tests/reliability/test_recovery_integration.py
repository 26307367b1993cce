"""End-to-end reliability: kill-and-recover, chaos runs, degraded serving.

The acceptance bar for the subsystem:

* a recommender crashed mid-stream and recovered from checkpoint + WAL
  replay serves the *same top-N* as an uninterrupted run;
* a transient model-state error under the Figure-2 topology aborts the
  run on both executors, naming the failing bolt, and every delivery the
  run routed is processed, failed or shed — none is lost uncounted;
* when the model state errors at serve time the router falls back to the
  hot-videos baseline, observably in its metrics.
"""

from pathlib import Path

import pytest

from repro.baselines import HotRecommender
from repro.core import ModelState, UserHistoryStore
from repro.core.recommender import RealtimeRecommender
from repro.errors import CheckpointError, ComponentError
from repro.obs import Observability
from repro.reliability import (
    ActionWAL,
    CheckpointManager,
    RecoveryManager,
)
from repro.serving.router import RecRequest, RequestRouter, Scenario
from repro.storm import LocalExecutor, ThreadedExecutor
from repro.topology.pipeline import SPOUT, build_recommendation_topology
from tests.support.faults import FlakyState, TransientStateError, unaccounted
from tests.support.state import plain

N_TOTAL = 240  # actions in the run
N_CHECKPOINT = 150  # checkpoint taken after this many
N_CRASH = 220  # "power loss" after this many


def _recommender(world, state=None, wal=None):
    return RealtimeRecommender(
        world.videos,
        users=world.users,
        state=state,
        wal=wal,
    )


def _sample_users(actions, k=8):
    seen = []
    for action in actions:
        if action.user_id not in seen:
            seen.append(action.user_id)
        if len(seen) == k:
            break
    return seen


class TestKillAndRecover:
    @pytest.fixture()
    def stream(self, small_actions):
        return small_actions[:N_TOTAL]

    def test_recovered_model_matches_uninterrupted_run(
        self, small_world, stream, tmp_path
    ):
        # Reference: one uninterrupted pass over the whole stream.
        rec_a = _recommender(small_world, ModelState())
        rec_a.observe_stream(stream)

        # Crashing run: WAL everything, checkpoint part-way, then "lose"
        # the process after N_CRASH actions (the state simply goes away).
        wal = ActionWAL(tmp_path / "wal", segment_max_records=64)
        recovery = RecoveryManager(
            CheckpointManager(tmp_path / "ckpt", fsync=False), wal
        )
        state_b = ModelState()
        rec_b = _recommender(small_world, state_b, wal=wal)
        rec_b.observe_stream(stream[:N_CHECKPOINT])
        recovery.checkpoint(state_b)
        rec_b.observe_stream(stream[N_CHECKPOINT:N_CRASH])
        del rec_b  # crash: in-memory state is gone, disk survives

        # Recover into a brand-new state and recommender, replaying only
        # the WAL suffix past the checkpoint, then finish the stream.
        state_c = ModelState()
        rec_c = _recommender(small_world, state_c, wal=wal)
        report = recovery.recover(state_c, rec_c.observe)
        assert report.checkpoint is not None
        assert report.checkpoint.wal_seq == N_CHECKPOINT
        assert report.replayed == N_CRASH - N_CHECKPOINT
        assert wal.last_seq == N_CRASH  # replay did not re-log
        rec_c.observe_stream(stream[N_CRASH:])
        assert wal.last_seq == N_TOTAL

        now = stream[-1].timestamp + 60.0
        for user in _sample_users(stream):
            assert rec_c.recommend_ids(user, n=10, now=now) == (
                rec_a.recommend_ids(user, n=10, now=now)
            ), f"recovered top-N diverged for {user}"

    def test_recovery_from_wal_alone(self, small_world, stream, tmp_path):
        """No checkpoint ever taken: the whole WAL replays from scratch."""
        wal = ActionWAL(tmp_path / "wal")
        recovery = RecoveryManager(
            CheckpointManager(tmp_path / "ckpt", fsync=False), wal
        )
        rec = _recommender(small_world, ModelState(), wal=wal)
        rec.observe_stream(stream[:100])
        del rec

        rec_a = _recommender(small_world, ModelState())
        rec_a.observe_stream(stream[:100])

        state = ModelState()
        rec_b = _recommender(small_world, state, wal=wal)
        report = recovery.recover(state, rec_b.observe)
        assert report.checkpoint is None
        assert report.replayed == 100

        now = stream[99].timestamp + 60.0
        for user in _sample_users(stream[:100], k=5):
            assert rec_b.recommend_ids(user, n=10, now=now) == (
                rec_a.recommend_ids(user, n=10, now=now)
            )

    def test_recovery_is_repeatable(self, small_world, stream, tmp_path):
        """Replay is deterministic: two recoveries agree with each other."""
        wal = ActionWAL(tmp_path / "wal")
        recovery = RecoveryManager(
            CheckpointManager(tmp_path / "ckpt", fsync=False), wal
        )
        state = ModelState()
        rec = _recommender(small_world, state, wal=wal)
        rec.observe_stream(stream[:80])
        recovery.checkpoint(state)
        rec.observe_stream(stream[80:120])
        del rec

        recovered = []
        for _ in range(2):
            state = ModelState()
            twin = _recommender(small_world, state, wal=wal)
            report = recovery.recover(state, twin.observe)
            assert report.replayed == 40
            recovered.append(twin)
        now = stream[119].timestamp + 60.0
        for user in _sample_users(stream[:120], k=5):
            assert recovered[0].recommend_ids(user, n=10, now=now) == (
                recovered[1].recommend_ids(user, n=10, now=now)
            )


class TestRollback:
    """``recover`` never trusts what the state holds now: it rolls any
    state back to the last checkpoint, or empties it when there is none."""

    def _recovery(self, tmp_path):
        return RecoveryManager(
            CheckpointManager(tmp_path / "ckpt", fsync=False),
            ActionWAL(tmp_path / "wal"),
        )

    def test_keys_written_after_the_checkpoint_are_dropped(self, tmp_path):
        recovery = self._recovery(tmp_path)
        state = ModelState()
        history = UserHistoryStore(state)
        history.add("a", "v1", 1.0)
        recovery.checkpoint(state)
        expected = plain(state)
        history.add("a", "v2", 2.0)
        history.add("b", "v3", 3.0)
        report = recovery.recover(state, lambda action: None)
        assert report.checkpoint is not None
        assert plain(state) == expected
        assert state.histories == {"a": [("v1", 1.0)]}

    def test_no_checkpoint_starts_from_an_empty_state(self, tmp_path):
        recovery = self._recovery(tmp_path)
        state = ModelState()
        UserHistoryStore(state).add("x", "v1", 1.0)
        report = recovery.recover(state, lambda action: None)
        assert report.checkpoint is None
        assert plain(state) == plain(ModelState())

    def test_recovering_the_live_store_applies_the_tail_once(
        self, small_world, small_actions, tmp_path
    ):
        """The state that already saw the tail is recovered in place: the
        tail replays onto the checkpoint, not on top of itself."""
        stream = small_actions[:N_CRASH]
        reference_state = ModelState()
        reference = _recommender(small_world, reference_state)
        reference.observe_stream(stream)

        wal = ActionWAL(tmp_path / "wal")
        recovery = RecoveryManager(
            CheckpointManager(tmp_path / "ckpt", fsync=False), wal
        )
        state = ModelState()
        live = _recommender(small_world, state, wal=wal)
        live.observe_stream(stream[:N_CHECKPOINT])
        recovery.checkpoint(state)
        live.observe_stream(stream[N_CHECKPOINT:])
        report = recovery.recover(state, live.observe)
        wal.close()
        assert report.replayed == N_CRASH - N_CHECKPOINT

        # Every value equal, row for row and entry for entry.
        assert plain(state) == plain(reference_state)
        now = stream[-1].timestamp + 60.0
        for user in _sample_users(stream):
            assert live.recommend_ids(user, n=10, now=now) == (
                reference.recommend_ids(user, n=10, now=now)
            )


class TestFullCheckpointRecovery:
    """Recovery paths of the one persistence design: full checkpoints of
    an in-memory model state plus the WAL tail."""

    def _recovery(self, tmp_path, retain=3):
        wal = ActionWAL(tmp_path / "wal", segment_max_records=64)
        return RecoveryManager(
            CheckpointManager(tmp_path / "ckpt", retain=retain, fsync=False),
            wal,
        )

    def _assert_same_top_n(self, recovered, reference, stream):
        now = stream[-1].timestamp + 60.0
        for user in _sample_users(stream):
            assert recovered.recommend_ids(user, n=10, now=now) == (
                reference.recommend_ids(user, n=10, now=now)
            ), f"recovered top-N diverged for {user}"

    def test_crash_before_the_first_checkpoint_replays_onto_an_empty_store(
        self, small_world, small_actions, tmp_path
    ):
        """A first boot killed before its checkpoint: the live state holds
        a prefix of the log and there is nothing to roll back to.
        Replaying from sequence 1 on top of it would apply that prefix
        twice."""
        stream = small_actions[:N_CRASH]
        reference = _recommender(small_world, ModelState())
        reference.observe_stream(stream)

        recovery = self._recovery(tmp_path)
        state = ModelState()
        live = _recommender(small_world, state, wal=recovery.wal)
        live.observe_stream(stream)
        assert state.histories
        report = recovery.recover(state, live.observe)
        assert report.checkpoint is None
        assert report.replayed == N_CRASH
        self._assert_same_top_n(live, reference, stream)

    def test_apply_gets_exactly_the_records_after_the_checkpoint_in_log_order(
        self, small_world, small_actions, tmp_path
    ):
        """Every piece of model state is in the checkpoint, so ``apply``
        sees the records with ``seq`` past its ``wal_seq`` and no other."""
        stream = small_actions[:N_CRASH]
        recovery = self._recovery(tmp_path)
        state = ModelState()
        live = _recommender(small_world, state, wal=recovery.wal)
        live.observe_stream(stream[:N_CHECKPOINT])
        info = recovery.checkpoint(state)
        live.observe_stream(stream[N_CHECKPOINT:])
        del live

        seen = []
        report = recovery.recover(ModelState(), seen.append)
        tail = [
            action.to_log_line()
            for seq, action in recovery.wal.replay()
            if seq > info.wal_seq
        ]
        assert info.wal_seq == N_CHECKPOINT
        assert report.replayed == len(seen) == N_CRASH - N_CHECKPOINT
        assert report.last_seq == N_CRASH
        assert [action.to_log_line() for action in seen] == tail
        assert tail == [a.to_log_line() for a in stream[N_CHECKPOINT:]]

    def test_newest_of_several_checkpoints_is_the_recovery_point(
        self, small_world, small_actions, tmp_path
    ):
        stream = small_actions[:N_CRASH]
        reference = _recommender(small_world, ModelState())
        reference.observe_stream(stream)

        recovery = self._recovery(tmp_path, retain=2)
        state = ModelState()
        live = _recommender(small_world, state, wal=recovery.wal)
        done = 0
        for cut in (60, 120, 180):
            live.observe_stream(stream[done:cut])
            recovery.checkpoint(state)
            done = cut
        live.observe_stream(stream[180:])
        del live

        assert [i.wal_seq for i in recovery.checkpoints.list()] == [120, 180]
        fresh = ModelState()
        recovered = _recommender(small_world, fresh, wal=recovery.wal)
        report = recovery.recover(fresh, recovered.observe)
        assert report.checkpoint.wal_seq == 180
        assert report.replayed == N_CRASH - 180
        self._assert_same_top_n(recovered, reference, stream)

    def test_corrupt_newest_checkpoint_is_refused_before_the_store_is_touched(
        self, small_world, small_actions, tmp_path
    ):
        """A checkpoint that fails its checksum stops recovery with a typed
        error; the state is left as it was, not half rolled back."""
        recovery = self._recovery(tmp_path)
        state = ModelState()
        live = _recommender(small_world, state, wal=recovery.wal)
        live.observe_stream(small_actions[:N_CHECKPOINT])
        info = recovery.checkpoint(state)
        live.observe_stream(small_actions[N_CHECKPOINT:N_CRASH])
        payload = Path(info.path) / "state.pkl"
        payload.write_bytes(payload.read_bytes()[:-8])
        before = plain(state)

        applied = []
        with pytest.raises(CheckpointError, match="checksum"):
            recovery.recover(state, applied.append)
        assert applied == []
        assert plain(state) == before

    def test_restart_over_reopened_roots_after_a_torn_append(
        self, small_world, small_actions, tmp_path
    ):
        """Two crashes, each a new process over the same directories: the
        first tears the record it was appending, the restarted process
        goes on logging, and a second restart — whose replay runs over the
        segment that held the torn bytes — still serves what an
        uninterrupted run serves."""
        stream = small_actions[:N_TOTAL]
        reference = _recommender(small_world, ModelState())
        reference.observe_stream(stream)

        def boot():
            recovery = self._recovery(tmp_path)
            state = ModelState()
            rec = _recommender(small_world, state, wal=recovery.wal)
            report = recovery.recover(state, rec.observe)
            return recovery, state, rec, report

        recovery, state, rec, _ = boot()
        rec.observe_stream(stream[:N_CHECKPOINT])
        recovery.checkpoint(state)
        rec.observe_stream(stream[N_CHECKPOINT:N_CRASH])
        recovery.wal.close()
        torn = f"{N_CRASH + 1}\t{stream[N_CRASH].to_log_line()}"
        with open(recovery.wal.segments()[-1], "a", encoding="utf-8") as handle:
            handle.write(torn[: len(torn) // 2])

        recovery, state, rec, report = boot()
        assert report.checkpoint.wal_seq == N_CHECKPOINT
        assert report.replayed == N_CRASH - N_CHECKPOINT
        assert recovery.wal.last_seq == N_CRASH
        rec.observe_stream(stream[N_CRASH:])
        recovery.wal.close()

        recovery, state, rec, report = boot()
        assert report.checkpoint.wal_seq == N_CHECKPOINT
        assert report.replayed == N_TOTAL - N_CHECKPOINT
        self._assert_same_top_n(rec, reference, stream)

@pytest.mark.parametrize("executor_cls", [LocalExecutor, ThreadedExecutor])
class TestStateFailureAbortsTopology:
    def test_state_error_aborts_the_run_and_accounts_every_delivery(
        self, executor_cls, small_world, small_actions
    ):
        stream = small_actions[:200]
        flaky_state = FlakyState(error_every=97)
        topology, _ = build_recommendation_topology(
            list(stream), small_world.videos, state=flaky_state
        )
        executor = executor_cls(topology)
        with pytest.raises(ComponentError) as raised:
            executor.run()
        failing = raised.value.component
        assert isinstance(raised.value.original, TransientStateError)
        assert failing in topology.components and failing != SPOUT
        snap = executor.metrics.snapshot()
        assert snap[failing]["failed"] >= 1
        # Every injected error surfaced as exactly one bolt failure.
        assert sum(row["failed"] for row in snap.values()) == (
            flaky_state.errors_raised
        )
        # The run stopped early, and lost no delivery uncounted.
        assert snap[SPOUT]["emitted"] < len(stream) or any(
            row["shed"] for row in snap.values()
        )
        assert unaccounted(topology, snap) == {}


class TestDegradedServing:
    def test_router_falls_back_to_hot_videos_on_state_errors(
        self, small_world, small_actions
    ):
        stream = small_actions[:300]
        flaky = FlakyState()
        primary = _recommender(small_world, flaky)
        hot = HotRecommender()
        for action in stream:
            primary.observe(action)
            hot.observe(action)
        router = RequestRouter(
            primary, fallback=hot, obs=Observability.create()
        )
        user = stream[0].user_id
        now = stream[-1].timestamp + 60.0

        # Healthy state: the primary serves.
        healthy = router.handle(RecRequest(user, n=5, timestamp=now))
        assert healthy.ok and not healthy.degraded

        # Model state starts erroring: requests degrade to HotVideos but
        # still succeed, and the fallback is visible in the metrics.
        flaky.fail_next(10_000)
        for _ in range(3):
            response = router.handle(RecRequest(user, n=5, timestamp=now))
            assert response.ok
            assert response.degraded
            assert response.video_ids  # the hot list is non-empty
        snap = router.snapshot()[Scenario.GUESS_YOU_LIKE.value]
        assert snap["requests"] == 4
        assert snap["fallbacks"] == 3
        assert snap["errors"] == 0
