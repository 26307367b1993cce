"""Deterministic fault injection for the model state, and the delivery
accounting every aborted topology run must satisfy.

* **transient state errors** — :class:`FlakyState` is a model state whose
  every Nth value fetch raises :class:`TransientStateError`, simulating a
  storage shard timing out.  The schedule is a counter, so a failing run
  replays exactly.
* **delivery accounting** — :func:`unaccounted` lists the bolts whose
  ``processed + failed + shed`` differs from the deliveries the run routed
  to them; whether the run finished or aborted, there must be none.
"""

from __future__ import annotations

import threading
from typing import Mapping

from repro.core.state import VALUES, ModelState
from repro.errors import ReproError
from repro.storm import Topology


class TransientStateError(ReproError):
    """A shard failed transiently (timeout, connection blip); retryable."""


class FlakyState(ModelState):
    """A model state whose value fetches fail on a fixed schedule.

    Every ``error_every``-th fetch of a value (``state.users``,
    ``state.hot``, ...) raises :class:`TransientStateError` instead of
    handing the value out, so the operation that needed it changes
    nothing.  ``error_every=0`` disables injection; :meth:`fail_next`
    forces the next fetches to fail regardless, for targeted tests.
    """

    def __init__(self, error_every: int = 0, *args) -> None:
        if error_every < 0:
            raise ValueError(f"error_every must be >= 0, got {error_every}")
        self.error_every = error_every
        self.errors_raised = 0
        self._fetches = 0
        self._force_fail = 0
        self._fault_lock = threading.Lock()
        super().__init__(*args)

    def __reduce__(self):
        """Pickle as a plain state: a checkpoint holds no fault schedule."""
        return ModelState, (), self.__getstate__()

    def fail_next(self, n: int = 1) -> None:
        """Make the next ``n`` value fetches raise unconditionally."""
        with self._fault_lock:
            self._force_fail += n

    def __getattribute__(self, name: str):
        if name in VALUES:
            object.__getattribute__(self, "_maybe_fail")(name)
        return object.__getattribute__(self, name)

    def _maybe_fail(self, name: str) -> None:
        with self._fault_lock:
            self._fetches += 1
            fail = False
            if self._force_fail > 0:
                self._force_fail -= 1
                fail = True
            elif self.error_every and self._fetches % self.error_every == 0:
                fail = True
            if fail:
                self.errors_raised += 1
        if fail:
            raise TransientStateError(f"injected transient failure on {name}")


def unaccounted(
    topology: Topology, snapshot: Mapping[str, Mapping[str, float]]
) -> dict[str, tuple[int, int]]:
    """Bolts whose ``processed + failed + shed`` differs from the
    deliveries the run routed to them, as ``name -> (routed, accounted)``.

    Fields grouping sends each emitted tuple to exactly one worker of every
    subscribed bolt, so a bolt receives one delivery per tuple its sources
    emitted.  Exact when every stream a component emits on has the same
    subscribers — true of the Figure-2 topology and the test topologies.
    """
    out: dict[str, tuple[int, int]] = {}
    for name, spec in topology.components.items():
        if spec.is_spout:
            continue
        sources = {sub.source for sub in spec.subscriptions}
        routed = sum(int(snapshot[source]["emitted"]) for source in sources)
        row = snapshot[name]
        accounted = int(row["processed"] + row["failed"] + row["shed"])
        if accounted != routed:
            out[name] = (routed, accounted)
    return out
