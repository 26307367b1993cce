"""The model's mutable state, as typed values on one object (paper §5.1).

The paper keeps every vector, history and similar-video list in "a
distributed memory-based key-value storage" so that any worker can reach
any of them.  In this in-process system that role is played by one
:class:`ModelState`, which holds:

* ``users`` / ``videos`` — one :class:`~repro.core.arena.FactorArena` per
  entity kind (vectors and biases, Eq. 2);
* ``lists`` — every video's similar list, one
  :class:`~repro.core.simtable.SimilarLists` (§4.2);
* ``histories`` — ``user -> [(video, timestamp), ...]``, newest first;
* ``hot`` — ``group -> {video: (score, updated_at)}``, the demographic hot
  tables and the Hot fallback's ``"__all__"`` (§5.2.1);
* ``mu`` — the ``(total, count)`` accumulator behind Eq. 2's ``mu``.

Each component reads and writes its own value through the state on every
access (``state.users``, never a cached reference), so :meth:`restore`,
which swaps the values in place, is seen by components built before it —
recovery builds the model first and restores the checkpoint under it.  A
checkpoint pickles the whole state.

Writers: the served process observes on one thread.  History and hot-table
writes replace the entry (copy on write), so a reader on another thread
holds a list or table that never changes under it.  Only ``mu`` is folded
from two threads — the two ``ComputeMF`` workers of the threaded topology
executor — so only ``mu`` has a lock here; the arenas' and the lists' own
locks separate their writers from readers on other threads.
"""

from __future__ import annotations

import threading

from ..config import MFConfig
from .arena import FactorArena
from .simtable import SimilarLists

#: The state's values: what a checkpoint pickles and a restore swaps.
VALUES = ("users", "videos", "lists", "histories", "hot", "mu")


class ModelState:
    """The arenas, the similar lists, the histories, the hot tables and
    ``mu`` of one model."""

    def __init__(self, f: int = MFConfig().f) -> None:
        #: The arenas' factor dimensionality, which a restore keeps.
        self.f = f
        self.users = FactorArena(f)
        self.videos = FactorArena(f)
        self.lists = SimilarLists()
        self.histories: dict[str, list[tuple[str, float]]] = {}
        self.hot: dict[str, dict[str, tuple[float, float]]] = {}
        self.mu: tuple[float, int] = (0.0, 0)
        # Separates the two ComputeMF workers' folds under ThreadedExecutor.
        self.mu_lock = threading.Lock()

    def restore(self, other: "ModelState") -> None:
        """Take ``other``'s values in place: a checkpoint restored, or
        ``ModelState(f)`` to empty the state.  Raises ``ValueError``, and
        takes nothing, when ``other``'s factors have another dimensionality."""
        if other.f != self.f:
            raise ValueError(
                f"restored arenas have f={other.f}, this state's f={self.f}"
            )
        for name in VALUES:
            setattr(self, name, getattr(other, name))

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in VALUES}

    def __setstate__(self, values: dict) -> None:
        self.__dict__.update(values)
        self.f = values["users"].f
        self.mu_lock = threading.Lock()
