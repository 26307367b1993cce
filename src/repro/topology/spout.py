"""The action spout of Figure 2.

"The spout gets data from Tencent Video, parses the raw message, filters
the unqualified data tuples, and transforms data tuples to the next bolts"
(§5.1).  Our spout accepts either raw tab-separated log lines or already
constructed :class:`~repro.data.schema.UserAction` objects, counts and
drops malformed input, and emits tuples with explicit ``user`` / ``video``
fields so downstream groupings can route on them.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

from ..data.schema import UserAction
from ..errors import DataError
from ..storm import Spout, StreamTuple


class SharedSource:
    """A thread-safe iterator shared by all workers of a parallel spout.

    Each item is consumed exactly once across workers, so running the spout
    with parallelism > 1 does not replay the stream.
    """

    def __init__(self, source: Iterable) -> None:
        self._iter = iter(source)
        self._lock = threading.Lock()

    def __iter__(self) -> "SharedSource":
        return self

    def __next__(self):
        with self._lock:
            return next(self._iter)

#: Stream/fields layout of the spout's output tuples.
ACTION_FIELDS = ("user", "video", "action")


def action_tuple(action: UserAction) -> StreamTuple:
    """Wrap a :class:`UserAction` as the spout's output tuple."""
    return StreamTuple(
        {
            "user": action.user_id,
            "video": action.video_id,
            "action": action,
        }
    )


class ActionSpout(Spout):
    """Parses and emits user actions from an in-memory or file source."""

    def __init__(self, source: Iterable[str | UserAction]) -> None:
        self._source = source
        self._iter: Iterator[str | UserAction] | None = None
        self.emitted = 0
        self.filtered = 0

    def open(self, ctx) -> None:
        self._iter = iter(self._source)

    def next_tuple(self) -> StreamTuple | None:
        assert self._iter is not None, "spout used before open()"
        for item in self._iter:
            if isinstance(item, UserAction):
                action = item
            else:
                try:
                    action = UserAction.from_log_line(item)
                except DataError:
                    self.filtered += 1
                    continue
            self.emitted += 1
            return action_tuple(action)
        return None
