"""Model-state helpers for tests: a counting state and plain-value views.

* :class:`CountingState` is a :class:`~repro.core.ModelState` that counts
  every fetch of one of its values (``state.users``, ``state.hot``, ...):
  each time a component reads or writes a value it fetches it once, so a
  fetch is one state operation — what one ``get`` or ``update`` of a
  store key was before the values were typed.
* :func:`plain` reads a state as plain data, for comparing two states.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.state import VALUES, ModelState


class CountingState(ModelState):
    """A model state whose value fetches are counted in ``ops``, by value
    name.  Counting starts at construction; :meth:`reset` zeroes it."""

    def __init__(self, *args) -> None:
        self.ops: Counter[str] = Counter()
        super().__init__(*args)

    def __getattribute__(self, name: str):
        if name in VALUES:
            object.__getattribute__(self, "ops")[name] += 1
        return object.__getattribute__(self, name)

    def __reduce__(self):
        """Pickle as a plain state: a checkpoint holds no counts."""
        return ModelState, (), self.__getstate__()

    def reset(self) -> None:
        self.ops.clear()

    def total(self) -> int:
        return sum(self.ops.values())


def plain(state: ModelState) -> dict:
    """Every value of ``state`` as plain data: arena rows as
    ``{id: (vector tuple, bias)}``, similar lists as ``{video: {other:
    (raw, updated_at)}}``, the rest as stored."""
    out: dict = {}
    for kind in ("users", "videos"):
        ids, vectors, biases = getattr(state, kind).sorted_rows(np.float64)
        out[kind] = {
            entity: (tuple(vector.tolist()), float(bias))
            for entity, vector, bias in zip(ids, vectors, biases)
        }
    out["lists"] = state.lists.__getstate__()
    out["histories"] = {user: list(entries) for user, entries in state.histories.items()}
    out["hot"] = {group: dict(table) for group, table in state.hot.items()}
    out["mu"] = state.mu
    return out
