"""Stream tuples — the unit of data flowing through a topology.

Storm models a stream as "an unbounded sequence of data tuples" (§5.1).  A
:class:`StreamTuple` is an immutable mapping of named fields to values plus
the stream id it was emitted on.  Field access is by name, matching how the
paper's topology routes, e.g. grouping ``<user, video, action>`` tuples by
the ``user`` field.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Iterator, Mapping

DEFAULT_STREAM = "default"


class StreamTuple(Mapping[str, Any]):
    """An immutable named-field tuple travelling on a stream.

    >>> t = StreamTuple({"user": "u1", "video": "v9"}, stream="actions")
    >>> t["user"]
    'u1'
    >>> t.stream
    'actions'
    """

    __slots__ = ("_values", "stream")

    def __init__(
        self, values: Mapping[str, Any], stream: str = DEFAULT_STREAM
    ) -> None:
        if not values:
            raise ValueError("a stream tuple must carry at least one field")
        self._values: Mapping[str, Any] = MappingProxyType(dict(values))
        self.stream = stream

    def __getitem__(self, field: str) -> Any:
        return self._values[field]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def select(self, fields: tuple[str, ...]) -> tuple[Any, ...]:
        """Project the tuple onto ``fields`` (used by fields grouping)."""
        return tuple(self._values[f] for f in fields)

    def __reduce__(self):
        # MappingProxyType does not pickle; rebuild from a plain dict.
        return (StreamTuple, (dict(self._values), self.stream))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"StreamTuple({body}, stream={self.stream!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamTuple):
            return NotImplemented
        return self.stream == other.stream and dict(self._values) == dict(
            other._values
        )

    def __hash__(self) -> int:
        return hash((self.stream, frozenset(self._values.items())))
