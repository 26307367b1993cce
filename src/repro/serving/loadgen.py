"""Load generation — offer the router a target request rate.

:class:`LoadGenerator` is the one load driver in ``src/``: an open-loop
generator that *offers* a target QPS regardless of how the router copes,
which is what saturation needs — a closed loop slows down with the server
and can never push it past capacity.  On a
:class:`~repro.clock.VirtualClock` shared with the router's admission
controller, arrivals follow the absolute schedule of
:func:`repro.serving.arrivals.arrival_times`, so a 2× overload experiment
(and every window of :func:`repro.eval.scenarios.run_scenario`) is
deterministic and instant.

Load over real sockets — the paper's "0.1 million requests in one second"
envelope at laptop scale, with the trainer ingesting concurrently — is
``benchmarks/e2e``'s job; it carries its own self-contained generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clock import VirtualClock
from .arrivals import arrival_times, offer
from .router import RecRequest, RequestRouter


@dataclass(frozen=True, slots=True)
class LoadReport:
    """Outcome of one load run.

    ``requests`` counts everything offered to the router;
    ``latencies_ms`` holds one sample per request the router actually
    served, in arrival order (sheds and deadline misses are accounted in
    their own counters), and every latency statistic is derived from it.
    """

    requests: int
    errors: int
    elapsed_seconds: float
    latencies_ms: tuple[float, ...]
    shed: int = 0
    deadline_exceeded: int = 0

    @property
    def qps(self) -> float:
        return self.requests / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def accepted(self) -> int:
        """Requests that reached a backend (served ok, degraded or error)."""
        return self.requests - self.shed - self.deadline_exceeded

    @property
    def mean_latency_ms(self) -> float:
        return float(np.mean(self.latencies_ms)) if self.latencies_ms else 0.0

    @property
    def p99_latency_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(self.latencies_ms, 99))


class LoadGenerator:
    """Open-loop request driver over a :class:`RequestRouter`.

    One generator owns one random stream for its lifetime: successive
    :meth:`run_offered` calls continue the request mix (which user asks,
    which scenario) instead of replaying it from the seed.
    """

    def __init__(
        self,
        router: RequestRouter,
        user_ids: list[str],
        video_ids: list[str],
        related_fraction: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not user_ids or not video_ids:
            raise ValueError("need at least one user and one video")
        if not 0 <= related_fraction <= 1:
            raise ValueError("related_fraction must be in [0, 1]")
        self.router = router
        self.user_ids = list(user_ids)
        self.video_ids = list(video_ids)
        self.related_fraction = related_fraction
        self._rng = np.random.default_rng(seed)

    def _make_request(
        self, now: float, deadline: float | None
    ) -> RecRequest:
        rng = self._rng
        user = self.user_ids[rng.integers(0, len(self.user_ids))]
        if rng.random() < self.related_fraction:
            video = self.video_ids[rng.integers(0, len(self.video_ids))]
            return RecRequest(
                user,
                current_video=video,
                timestamp=now,
                deadline_seconds=deadline,
            )
        return RecRequest(user, timestamp=now, deadline_seconds=deadline)

    def run_offered(
        self,
        total_requests: int,
        qps: float,
        clock: VirtualClock,
        deadline_seconds: float | None = None,
        process: str = "uniform",
    ) -> LoadReport:
        """Offer ``total_requests`` at a target ``qps`` on a virtual clock.

        Open-loop saturation driver: arrivals follow an absolute schedule
        from :func:`repro.serving.arrivals.arrival_times` on ``clock`` —
        which must be the same :class:`~repro.clock.VirtualClock` the
        router (and its admission controller / simulated backend) runs on
        — so offered load does not slow down when the router saturates,
        and the run is fully deterministic.  ``process`` selects the
        arrival shape (``uniform``/``poisson``/``burst``);
        ``deadline_seconds`` stamps every request with that latency
        budget.
        """
        if total_requests < 1:
            raise ValueError("total_requests must be >= 1")
        if qps <= 0:
            raise ValueError(f"qps must be positive, got {qps}")
        latencies_ms: list[float] = []
        errors = shed = deadline_missed = 0
        started = clock.now()
        schedule = arrival_times(
            started, total_requests, qps, process=process, rng=self._rng
        )
        for now in offer(clock, schedule):
            response = self.router.handle(
                self._make_request(now, deadline_seconds)
            )
            if response.shed:
                shed += 1
            elif response.deadline_exceeded:
                deadline_missed += 1
            else:
                latencies_ms.append(response.latency_seconds * 1000.0)
                if not response.ok:
                    errors += 1
        return LoadReport(
            requests=total_requests,
            errors=errors,
            elapsed_seconds=clock.now() - started,
            latencies_ms=tuple(latencies_ms),
            shed=shed,
            deadline_exceeded=deadline_missed,
        )
