"""Shared open-loop arrival processes on the virtual clock.

An open-loop driver needs an *absolute* schedule of arrival times at a
target rate, so that time the backend burns serving one request does not
push later arrivals back.  This module is the one implementation, and
:meth:`LoadGenerator.run_offered` — which the overload tests and every
window of the scenario runner's ops loop go through — its one consumer.

``process="uniform"`` accumulates ``t += 1/qps`` in floating point rather
than computing ``start + i/qps``; recorded scenario reports
(``tests/eval/golden``) depend on that exact spacing.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import ConfigError

__all__ = ["arrival_times", "ARRIVAL_PROCESSES"]

#: Supported arrival processes.
ARRIVAL_PROCESSES = ("uniform", "poisson", "burst")


def arrival_times(
    start: float,
    count: int,
    qps: float,
    *,
    process: str = "uniform",
    rng: np.random.Generator | int | None = None,
    burst_size: int = 16,
    burst_factor: float = 8.0,
) -> list[float]:
    """Absolute arrival times for ``count`` open-loop requests.

    * ``uniform`` — deterministic spacing of exactly ``1/qps``, accumulated
      by repeated float addition (see the module docstring);
    * ``poisson`` — i.i.d. exponential inter-arrivals with mean ``1/qps``
      (deterministic given ``rng``, which may be a seed);
    * ``burst`` — bursts of ``burst_size`` arrivals spaced at
      ``burst_factor`` times the base rate, separated by idle gaps sized so
      the long-run mean rate is still ``qps`` — the adversarial shape for
      token-bucket admission control.

    All processes honour the open-loop contract: the schedule depends only
    on ``(start, count, qps)`` plus process parameters, never on how long
    the server takes.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if qps <= 0:
        raise ConfigError(f"qps must be positive, got {qps}")
    if process not in ARRIVAL_PROCESSES:
        raise ConfigError(
            f"process must be one of {ARRIVAL_PROCESSES}, got {process!r}"
        )

    if process == "uniform":
        interval = 1.0 / qps
        times = []
        t = start
        for _ in range(count):
            times.append(t)
            t += interval
        return times

    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(0 if rng is None else int(rng))

    if process == "poisson":
        gaps = rng.exponential(1.0 / qps, size=count)
        # First arrival at ``start`` exactly, like the uniform process —
        # the gap sequence spaces the arrivals *after* it.
        return list(start + np.concatenate([[0.0], np.cumsum(gaps[:-1])]))

    # burst
    if burst_size < 1:
        raise ConfigError(f"burst_size must be >= 1, got {burst_size}")
    if burst_factor <= 1.0:
        raise ConfigError(
            f"burst_factor must exceed 1.0, got {burst_factor}"
        )
    inside = 1.0 / (qps * burst_factor)
    # Each burst owns a period of burst_size/qps; the tail of the period
    # beyond the burst itself is idle, so the mean rate stays qps.
    period = burst_size / qps
    times = []
    t = start
    position = 0
    for _ in range(count):
        times.append(t)
        position += 1
        if position == burst_size:
            t += period - (burst_size - 1) * inside
            position = 0
        else:
            t += inside
    return times


def offer(
    clock,
    times: Iterable[float],
) -> Iterable[float]:
    """Advance ``clock`` to each arrival time in turn, yielding it.

    The canonical consume loop: ``for t in offer(clock, times): ...`` —
    the clock never moves backwards (a slow backend can overrun the
    schedule; the late request then fires immediately, as in any real
    open-loop driver).
    """
    for t in times:
        if clock.now() < t:
            clock.advance(t - clock.now())
        yield clock.now()
