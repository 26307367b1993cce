"""Write-ahead-log tests: rotation, replay positioning, torn tails."""

import os
import threading

import pytest

from repro.data.schema import ActionType, UserAction
from repro.errors import WALError
from repro.reliability import ActionWAL


def _action(i: int) -> UserAction:
    return UserAction(
        timestamp=float(i),
        user_id=f"u{i % 7}",
        video_id=f"v{i % 13}",
        action=ActionType.CLICK,
    )


class TestAppendReplay:
    def test_sequences_are_contiguous_from_one(self, tmp_path):
        wal = ActionWAL(tmp_path)
        seqs = [wal.append(_action(i)) for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert wal.last_seq == 5

    def test_replay_returns_actions_in_order(self, tmp_path):
        wal = ActionWAL(tmp_path)
        originals = [_action(i) for i in range(20)]
        for action in originals:
            wal.append(action)
        replayed = list(wal.replay())
        assert [seq for seq, _ in replayed] == list(range(1, 21))
        assert [a for _, a in replayed] == originals

    def test_replay_after_seq_skips_prefix(self, tmp_path):
        wal = ActionWAL(tmp_path)
        for i in range(10):
            wal.append(_action(i))
        assert [seq for seq, _ in wal.replay(after_seq=7)] == [8, 9, 10]

    def test_suspend_makes_append_a_noop(self, tmp_path):
        wal = ActionWAL(tmp_path)
        wal.append(_action(0))
        with wal.suspend():
            assert wal.append(_action(1)) == 1
        assert wal.last_seq == 1
        assert len(list(wal.replay())) == 1


class TestSegmentRotation:
    def test_rotates_at_max_records(self, tmp_path):
        wal = ActionWAL(tmp_path, segment_max_records=4)
        for i in range(10):
            wal.append(_action(i))
        names = [path.name for path in wal.segments()]
        assert names == [
            "wal-000000000001.log",
            "wal-000000000005.log",
            "wal-000000000009.log",
        ]
        # Rotation must not lose or reorder records.
        assert [seq for seq, _ in wal.replay()] == list(range(1, 11))

    def test_replay_skips_whole_old_segments(self, tmp_path):
        wal = ActionWAL(tmp_path, segment_max_records=3)
        for i in range(9):
            wal.append(_action(i))
        assert [seq for seq, _ in wal.replay(after_seq=6)] == [7, 8, 9]

    def test_reopen_resumes_sequence_numbers(self, tmp_path):
        with ActionWAL(tmp_path, segment_max_records=3) as wal:
            for i in range(7):
                wal.append(_action(i))
        reopened = ActionWAL(tmp_path, segment_max_records=3)
        assert reopened.last_seq == 7
        assert reopened.append(_action(7)) == 8
        assert [seq for seq, _ in reopened.replay()] == list(range(1, 9))

    def test_rotation_fsync_sequence(self, tmp_path, monkeypatch):
        """With ``fsync=True`` a rotation must (a) fsync the outgoing
        segment file before closing it and (b) fsync the WAL *directory*
        after creating the new file — otherwise power loss can forget
        either the sealed records or the new segment's existence."""
        fsyncs = []
        real_fsync = os.fsync

        def spy_fsync(fd):
            fsyncs.append("dir" if os.fstat(fd).st_mode & 0o040000 else "file")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        wal = ActionWAL(tmp_path, segment_max_records=2, fsync=True)
        wal.append(_action(0))  # opens segment 1: dir fsync
        wal.append(_action(1))
        fsyncs.clear()
        wal.append(_action(2))  # rotation: seal old file, then dir fsync
        # per-append file fsyncs follow the rotation pair
        assert fsyncs[:3] == ["file", "dir", "file"]
        wal.close()

    def test_no_fsync_calls_when_disabled(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        wal = ActionWAL(tmp_path, segment_max_records=2, fsync=False)
        for i in range(5):
            wal.append(_action(i))
        wal.close()
        assert calls == []


class TestCorruption:
    def test_torn_tail_is_dropped(self, tmp_path):
        wal = ActionWAL(tmp_path)
        for i in range(3):
            wal.append(_action(i))
        wal.close()
        segment = wal.segments()[-1]
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write("4\t99.0\tu1\tv1\tcli")  # crash mid-append
        assert [seq for seq, _ in ActionWAL(tmp_path).replay()] == [1, 2, 3]

    def test_reopen_after_torn_tail_continues_cleanly(self, tmp_path):
        wal = ActionWAL(tmp_path)
        wal.append(_action(0))
        wal.close()
        segment = wal.segments()[-1]
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write("2\tgarb")
        reopened = ActionWAL(tmp_path)
        assert reopened.last_seq == 1

    def test_torn_tail_is_cut_before_the_next_segment_opens(self, tmp_path):
        """The append after a reopen starts a new segment; the torn bytes
        left in the old one would make every later open fail."""
        wal = ActionWAL(tmp_path)
        for i in range(3):
            wal.append(_action(i))
        wal.close()
        segment = wal.segments()[-1]
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write("4\t99.0\tu1\tv1\tcli")  # crash mid-append
        with ActionWAL(tmp_path) as reopened:
            assert reopened.append(_action(3)) == 4
        assert len(wal.segments()) == 2
        replayed = list(ActionWAL(tmp_path).replay())
        assert replayed == [(i + 1, _action(i)) for i in range(4)]

    def test_segment_holding_only_a_torn_record_is_reused_cleanly(
        self, tmp_path
    ):
        """A crash right after a rotation leaves a newest segment with one
        torn record; the next append reuses that segment's name and must
        not be glued onto the torn bytes."""
        wal = ActionWAL(tmp_path)
        for i in range(3):
            wal.append(_action(i))
        wal.close()
        (tmp_path / "wal-000000000004.log").write_text(
            "4\t99.0\tu1\tv1\tcli", encoding="utf-8"
        )
        with ActionWAL(tmp_path) as reopened:
            assert reopened.last_seq == 3
            assert reopened.append(_action(3)) == 4
        replayed = list(ActionWAL(tmp_path).replay())
        assert replayed == [(i + 1, _action(i)) for i in range(4)]

    @pytest.mark.parametrize("fsync", [True, False])
    def test_cutting_a_torn_tail_fsyncs_only_when_asked(
        self, tmp_path, monkeypatch, fsync
    ):
        with ActionWAL(tmp_path) as wal:
            wal.append(_action(0))
        with open(wal.segments()[-1], "a", encoding="utf-8") as handle:
            handle.write("2\tgarb")
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        ActionWAL(tmp_path, fsync=fsync).close()
        assert len(calls) == (1 if fsync else 0)
        assert wal.segments()[-1].read_text(encoding="utf-8").endswith("\n")

    def test_interior_corruption_raises(self, tmp_path):
        wal = ActionWAL(tmp_path)
        for i in range(3):
            wal.append(_action(i))
        wal.close()
        segment = wal.segments()[-1]
        lines = segment.read_text(encoding="utf-8").splitlines()
        lines[1] = "not a record"
        segment.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(WALError, match="corrupt"):
            list(ActionWAL(tmp_path).replay())

    def test_sequence_gap_raises(self, tmp_path):
        wal = ActionWAL(tmp_path)
        for i in range(3):
            wal.append(_action(i))
        wal.close()
        segment = wal.segments()[-1]
        lines = segment.read_text(encoding="utf-8").splitlines()
        del lines[1]
        segment.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(WALError, match="gap"):
            list(ActionWAL(tmp_path).replay())


class TestConcurrentAppend:
    def test_threaded_appends_leave_no_gap_or_duplicate(self, tmp_path):
        """N threads x M appends: every seq handed out once, the file in
        seq order — a reopened log replays ``1..N*M`` (the gateway runs
        ``observe`` on a thread pool, so ``append`` races for real)."""
        n_threads, per_thread = 8, 250
        wal = ActionWAL(tmp_path, segment_max_records=64)
        seqs: list[list[int]] = [[] for _ in range(n_threads)]
        start = threading.Barrier(n_threads)

        def worker(t: int) -> None:
            start.wait()
            for i in range(per_thread):
                seqs[t].append(wal.append(_action(t * per_thread + i)))

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wal.close()

        total = n_threads * per_thread
        assert sorted(s for per in seqs for s in per) == list(range(1, total + 1))
        reopened = ActionWAL(tmp_path)
        assert reopened.last_seq == total
        assert [seq for seq, _ in reopened.replay()] == list(range(1, total + 1))


class TestDurability:
    def test_every_append_is_fsynced_when_asked(self, tmp_path, monkeypatch):
        """``fsync=True`` (``--fsync always``) syncs each record before
        ``append`` returns its seq — the ack — plus the directory once
        for the new segment file."""
        kinds = []
        real_fsync = os.fsync

        def spy_fsync(fd):
            kinds.append("dir" if os.fstat(fd).st_mode & 0o040000 else "file")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        with ActionWAL(tmp_path, fsync=True) as wal:
            for i in range(5):
                wal.append(_action(i))
                assert kinds.count("file") == i + 1
        assert kinds == ["dir"] + ["file"] * 5

    def test_appends_are_readable_before_close(self, tmp_path):
        """Without fsync each append is still flushed to the OS, so a
        process that dies without closing the log loses nothing it acked."""
        wal = ActionWAL(tmp_path, segment_max_records=3)
        originals = [_action(i) for i in range(8)]
        for action in originals:
            wal.append(action)
        reader = ActionWAL(tmp_path)
        assert reader.last_seq == 8
        assert [a for _, a in reader.replay()] == originals
        wal.close()

    def test_rejects_non_positive_segment_size(self, tmp_path):
        with pytest.raises(ValueError, match="segment_max_records"):
            ActionWAL(tmp_path, segment_max_records=0)

    def test_empty_newest_segment_sets_the_append_position(self, tmp_path):
        """A crash between creating a segment and writing to it leaves it
        empty; its name still says where the log stands."""
        with ActionWAL(tmp_path, segment_max_records=4) as wal:
            for i in range(4):
                wal.append(_action(i))
        (tmp_path / "wal-000000000005.log").touch()
        with ActionWAL(tmp_path, segment_max_records=4) as reopened:
            assert reopened.last_seq == 4
            assert reopened.append(_action(4)) == 5
        assert [p.name for p in reopened.segments()] == [
            "wal-000000000001.log",
            "wal-000000000005.log",
        ]
        assert [seq for seq, _ in ActionWAL(tmp_path).replay()] == [1, 2, 3, 4, 5]

    def test_replay_past_the_last_seq_is_empty(self, tmp_path):
        with ActionWAL(tmp_path, segment_max_records=2) as wal:
            for i in range(5):
                wal.append(_action(i))
        assert list(wal.replay(after_seq=5)) == []
        assert list(wal.replay(after_seq=50)) == []
        assert [seq for seq, _ in wal.replay(after_seq=4)] == [5]
