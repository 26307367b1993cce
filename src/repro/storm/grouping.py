"""Stream groupings — how tuples are distributed across a bolt's workers.

The paper's correctness argument (§5.1) hinges on *fields grouping*: new MF
vectors are re-partitioned from ``ComputeMF`` to ``MFStorage`` by their
storage key, which "guarantees only a single worker node should operate over a
specific video or user vector at some point", making vector updates atomic
without locks.  :class:`FieldsGrouping` implements exactly that guarantee
with a stable hash, and the topology tests assert it.  It is the only
grouping: every edge of Figure 2 is fields-grouped.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from ..hashing import combined_hash
from .tuples import StreamTuple


class Grouping(ABC):
    """Strategy mapping an incoming tuple to target worker indices."""

    @abstractmethod
    def select(self, tup: StreamTuple, n_workers: int) -> Sequence[int]:
        """Return the worker indices (usually one) that receive ``tup``."""

    def describe(self) -> str:
        """Human-readable label used in topology dumps."""
        return type(self).__name__


class FieldsGrouping(Grouping):
    """Route by a stable hash of selected fields.

    All tuples agreeing on the grouping fields go to the same worker — the
    single-writer guarantee the paper's MF storage design relies on.
    """

    def __init__(self, fields: Sequence[str]) -> None:
        if not fields:
            raise ValueError("fields grouping needs at least one field")
        self.fields = tuple(fields)

    def select(self, tup: StreamTuple, n_workers: int) -> Sequence[int]:
        key = tup.select(self.fields)
        return (combined_hash(key) % n_workers,)

    def describe(self) -> str:
        return f"FieldsGrouping({', '.join(self.fields)})"
