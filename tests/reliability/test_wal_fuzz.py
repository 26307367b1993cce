"""Crash-model fuzz for the write-ahead log.

A crash can only cut the *newest* segment short: every older segment was
sealed (fsynced first, with ``fsync=True``) before the next one opened.
For any such cut, reopening must succeed, replay must give back exactly
the acked records up to the cut — each under the sequence number it was
appended with — and the log must keep accepting appends that a further
reopen replays without a gap.  A record missing from the *interior* of
the log is the other case: replay must refuse it with a typed
:class:`~repro.errors.WALError` rather than skip it, since recovery would
otherwise lose an acked action without a trace.

Actions compare by timestamp only, so records are judged by their log
encoding.  Seeded ``random`` keeps every case reproducible from its id.
"""

import random

import pytest

from repro.data.schema import ActionType, UserAction
from repro.errors import WALError
from repro.reliability import ActionWAL


def _random_action(rng: random.Random, step: int) -> UserAction:
    kind = rng.choice(list(ActionType))
    view_time = (
        round(rng.uniform(0.5, 300.0), 3)
        if kind is ActionType.PLAYTIME or rng.random() < 0.2
        else 0.0
    )
    return UserAction(
        timestamp=1e6 + 7.5 * step + round(rng.random(), 3),
        user_id=f"u{rng.randrange(40)}",
        video_id=f"v{rng.randrange(60)}",
        action=kind,
        view_time=view_time,
    )


def _build_log(root, rng):
    """Append a random multi-segment log; return its records' encodings,
    ``lines[seq - 1]`` for every acked ``seq``."""
    lines = []
    with ActionWAL(root, segment_max_records=rng.randint(2, 12)) as wal:
        for step in range(rng.randint(15, 80)):
            action = _random_action(rng, step)
            assert wal.append(action) == len(lines) + 1
            lines.append(action.to_log_line())
    return lines


def _replayed(root):
    return [(seq, action.to_log_line()) for seq, action in ActionWAL(root).replay()]


@pytest.mark.parametrize("seed", range(25))
def test_crash_cut_newest_segment_keeps_an_acked_prefix(tmp_path, seed):
    rng = random.Random(seed)
    root = tmp_path / "wal"
    lines = _build_log(root, rng)
    newest = ActionWAL(root).segments()[-1]
    first_in_newest = int(newest.name[len("wal-") : -len(".log")])
    data = newest.read_bytes()
    newest.write_bytes(data[: rng.randrange(len(data) + 1)])

    reopened = ActionWAL(root, segment_max_records=4)
    kept = reopened.last_seq
    # Everything sealed before the newest segment survives the cut.
    assert first_in_newest - 1 <= kept <= len(lines)
    assert _replayed(root) == [
        (seq, lines[seq - 1]) for seq in range(1, kept + 1)
    ]

    # The log goes on from the cut, across rotations, and a further
    # reopen replays the surviving prefix and the new records gap-free.
    extra = [_random_action(rng, 1000 + i) for i in range(15)]
    for offset, action in enumerate(extra, start=1):
        assert reopened.append(action) == kept + offset
    reopened.close()
    expected = lines[:kept] + [action.to_log_line() for action in extra]
    assert _replayed(root) == list(enumerate(expected, start=1))


@pytest.mark.parametrize("seed", range(5))
def test_missing_interior_record_is_refused(tmp_path, seed):
    """Drop one record that is neither the very first nor the very last:
    replay meets a sequence gap and must raise, in whichever segment the
    hole is — the newest already fails the reopen."""
    rng = random.Random(1000 + seed)
    root = tmp_path / "wal"
    lines = _build_log(root, rng)
    victim = rng.randint(2, len(lines) - 1)
    for segment in ActionWAL(root).segments():
        records = segment.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [r for r in records if int(r.split("\t", 1)[0]) != victim]
        if len(kept) != len(records):
            segment.write_text("".join(kept), encoding="utf-8")
            break
    else:
        pytest.fail(f"record {victim} not found")

    with pytest.raises(WALError, match="sequence gap"):
        list(ActionWAL(root).replay())
