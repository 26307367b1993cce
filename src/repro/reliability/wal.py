"""Write-ahead log of user actions, with segment rotation.

Every action is appended to the log *before* it mutates any model state, so
after a crash the actions newer than the last checkpoint can be replayed
into a restored state — Storm's "replay unacked tuples" guarantee (§5.1),
rebuilt on a plain append-only file.

Record format is one line per action::

    <seq>\t<timestamp>\t<user>\t<video>\t<action>\t<view_time>\n

i.e. a monotonically increasing sequence number followed by the raw-log
encoding :meth:`repro.data.schema.UserAction.to_log_line` already defines —
the same format the :class:`~repro.topology.spout.ActionSpout` parses.

Segments are named ``wal-<first_seq>.log`` and rotated once they reach
``segment_max_records`` records, so replay after a checkpoint can skip
whole segments by filename.  A record is whole once its newline is on
disk.  A torn final record (crash mid-append) is cut off the newest
segment when the log is opened — otherwise the next append would bury it
inside the log — and ignored by a replay that meets it; corruption
anywhere *before* the tail raises :class:`~repro.errors.WALError`,
because silently skipping interior records would break at-least-once
recovery.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from ..data.schema import UserAction
from ..errors import DataError, WALError

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


def _segment_name(first_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_seq:012d}{_SEGMENT_SUFFIX}"


def _segment_first_seq(path: Path) -> int:
    stem = path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return int(stem)


def _parse_record(line: str) -> tuple[int, UserAction]:
    """``(seq, action)`` of one record line (no newline); raises
    ``ValueError`` or :class:`~repro.errors.DataError` when malformed."""
    seq_str, payload = line.split("\t", 1)
    return int(seq_str), UserAction.from_log_line(payload)


class ActionWAL:
    """Append-only, segment-rotated action log.

    ``fsync=True`` forces every append to disk (crash-durable but slow);
    the default flushes to the OS on each append, which survives process
    crashes though not power loss.  :meth:`suspend` makes appends no-ops,
    which recovery uses so replaying an action through a WAL-wired trainer
    does not re-log it.

    :meth:`append` is thread-safe: sequence allocation, rotation, write,
    flush and fsync happen under one lock, so concurrent appenders (the
    gateway runs ``observe`` on a thread pool) get distinct, gap-free
    sequence numbers in file order.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        segment_max_records: int = 10_000,
        fsync: bool = False,
    ) -> None:
        if segment_max_records < 1:
            raise ValueError(
                f"segment_max_records must be >= 1, got {segment_max_records}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_max_records = segment_max_records
        self.fsync = fsync
        self._handle: IO[str] | None = None
        self._segment_records = 0
        self._suspended = 0
        self._lock = threading.Lock()
        self._last_seq = self._scan_last_seq()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable record (0 when empty)."""
        return self._last_seq

    def append(self, action: UserAction) -> int:
        """Log one action; return its sequence number.

        While suspended (during replay) nothing is written and the current
        :attr:`last_seq` is returned unchanged.
        """
        line = action.to_log_line()
        with self._lock:
            if self._suspended:
                return self._last_seq
            seq = self._last_seq + 1
            if (
                self._handle is None
                or self._segment_records >= self.segment_max_records
            ):
                self._rotate(seq)
            assert self._handle is not None
            self._handle.write(f"{seq}\t{line}\n")
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self._segment_records += 1
            self._last_seq = seq
            return seq

    def _rotate(self, first_seq: int) -> None:
        """Seal the current segment and open ``wal-<first_seq>.log``.

        The outgoing segment is fsynced before it is closed, and the WAL
        directory is fsynced after the new file is created — without the
        directory fsync, a power loss can forget the new segment's very
        *existence* even though its records were flushed.
        """
        if self._handle is not None:
            if self.fsync:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            self._handle.close()
        path = self.root / _segment_name(first_seq)
        self._handle = open(path, "a", encoding="utf-8")
        if self.fsync:
            self._fsync_dir()
        self._segment_records = 0

    def _fsync_dir(self) -> None:
        dir_fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    @contextmanager
    def suspend(self) -> Iterator[None]:
        """Context manager under which :meth:`append` is a no-op."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "ActionWAL":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def segments(self) -> list[Path]:
        """Segment files, oldest first."""
        return sorted(
            (
                path
                for path in self.root.iterdir()
                if path.name.startswith(_SEGMENT_PREFIX)
                and path.name.endswith(_SEGMENT_SUFFIX)
            ),
            key=_segment_first_seq,
        )

    def replay(self, after_seq: int = 0) -> Iterator[tuple[int, UserAction]]:
        """Yield ``(seq, action)`` for every record with ``seq > after_seq``.

        Whole segments older than ``after_seq`` are skipped by filename.  A
        torn record at the very tail of the newest segment is dropped; any
        other malformed or out-of-order record raises
        :class:`~repro.errors.WALError`.
        """
        segments = self.segments()
        # A segment can be skipped when the *next* segment starts at or
        # below the cut point — then nothing in it is > after_seq.
        selected: list[Path] = []
        for idx, path in enumerate(segments):
            next_first = (
                _segment_first_seq(segments[idx + 1])
                if idx + 1 < len(segments)
                else None
            )
            if next_first is not None and next_first <= after_seq + 1:
                continue
            selected.append(path)

        expected = None
        for s_idx, path in enumerate(selected):
            last_segment = s_idx == len(selected) - 1
            lines = path.read_text(encoding="utf-8").split("\n")
            for l_idx, line in enumerate(lines):
                if not line:
                    continue
                last_line = last_segment and l_idx >= len(lines) - 2
                try:
                    seq, action = _parse_record(line)
                except (ValueError, DataError) as exc:
                    if last_line:
                        return  # torn tail from a crash mid-append
                    raise WALError(
                        f"corrupt WAL record in {path.name}: {line!r}"
                    ) from exc
                if expected is not None and seq != expected:
                    raise WALError(
                        f"WAL sequence gap in {path.name}: "
                        f"expected {expected}, found {seq}"
                    )
                expected = seq + 1
                if seq > after_seq:
                    yield seq, action

    def _scan_last_seq(self) -> int:
        """Recover the append position from the newest segment on open,
        after cutting a torn final record off it."""
        segments = self.segments()
        if not segments:
            return 0
        newest = segments[-1]
        self._truncate_torn_tail(newest)
        last = 0
        before_newest = max(0, _segment_first_seq(newest) - 1)
        for seq, _ in self.replay(after_seq=before_newest):
            last = seq
        # An empty newest segment: the append position comes from its name.
        return last or before_newest

    def _truncate_torn_tail(self, path: Path) -> None:
        """Cut the last record off ``path`` if it lacks its newline or does
        not parse.  Left in place, the torn bytes become interior once the
        next append opens a new segment (a fatal :class:`WALError` on the
        following open), or the next record is glued onto them when this
        segment is reused."""
        data = path.read_bytes()
        keep = data.rfind(b"\n") + 1
        if keep == len(data) and data:
            start = data.rfind(b"\n", 0, len(data) - 1) + 1
            try:
                _parse_record(data[start:-1].decode("utf-8"))
            except (ValueError, DataError):
                keep = start
        if keep == len(data):
            return
        with open(path, "r+b") as handle:
            handle.truncate(keep)
            if self.fsync:
                os.fsync(handle.fileno())
