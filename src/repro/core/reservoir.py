"""Reservoir-replay online training — the related-work alternative (§2.2).

The paper contrasts its pure single-pass updating with online approaches
that "keep a representative sample of the data set in a reservoir to
retrain the model" (Diaz-Aviles et al., refs [12, 13]).  This module
implements that alternative as an extension so the trade-off can be
measured: a :class:`ReservoirTrainer` maintains a fixed-size uniform sample
of past positive actions (Vitter's Algorithm R) and, for every new action,
additionally replays a few reservoir entries through the model.

Compared to Algorithm 1 this buys extra convergence per new observation at
the cost of memory and per-action latency — exactly the trade the paper
declined for "large streaming data".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..data.schema import UserAction
from .feedback import Feedback
from .online import OnlineTrainer


@dataclass(slots=True)
class ReservoirStats:
    """Counters for the replay mechanism."""

    stored: int = 0
    replayed: int = 0


class Reservoir:
    """A fixed-size uniform sample of a stream (Vitter's Algorithm R)."""

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: list[UserAction] = []
        self._seen = 0
        self._rng = random.Random(seed)

    def offer(self, item: UserAction) -> None:
        """Consider one stream element for inclusion."""
        self._seen += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self.capacity:
            self._items[slot] = item

    def sample(self, k: int) -> list[UserAction]:
        """Draw up to ``k`` elements uniformly (without replacement)."""
        if not self._items:
            return []
        k = min(k, len(self._items))
        return self._rng.sample(self._items, k)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def seen(self) -> int:
        return self._seen


class ReservoirTrainer:
    """Wraps an :class:`OnlineTrainer` with reservoir replay.

    Every positive action is (a) processed normally, (b) offered to the
    reservoir, and (c) followed by ``replays`` additional updates drawn
    from the reservoir.  With ``replays = 0`` this degrades exactly to
    Algorithm 1.
    """

    def __init__(
        self,
        trainer: OnlineTrainer,
        capacity: int = 1000,
        replays: int = 2,
        seed: int = 0,
    ) -> None:
        if replays < 0:
            raise ValueError(f"replays must be >= 0, got {replays}")
        self.trainer = trainer
        self.reservoir = Reservoir(capacity, seed=seed)
        self.replays = replays
        self.stats = ReservoirStats()

    @property
    def model(self):
        return self.trainer.model

    def feedback_for(self, action: UserAction) -> Feedback:
        return self.trainer.feedback_for(action)

    def is_playtime_capable(self, action: UserAction) -> bool:
        return self.trainer.is_playtime_capable(action)

    def process(self, action: UserAction, feedback: Feedback | None = None):
        """Process one action plus its replay budget; return the primary
        update (or ``None`` as in :meth:`OnlineTrainer.process`, which
        takes ``feedback`` the same way)."""
        update = self.trainer.process(action, feedback)
        if update is None:
            return None
        self.reservoir.offer(action)
        self.stats.stored = len(self.reservoir)
        for replayed in self.reservoir.sample(self.replays):
            if replayed is action:
                continue
            self.trainer.process(replayed)
            self.stats.replayed += 1
        return update
