"""Serving layer: request routing, the HTTP gateway, load generation.

Reproduces the operational envelope the paper quotes for production —
millisecond request latency under concurrent traffic while the model keeps
updating in real time (§4.1, §6).  :class:`ServingGateway` puts the
router behind real sockets with request coalescing;
:class:`LoadGenerator` offers the router open-loop load on a virtual
clock (overload tests, the scenario engine).  Load over real sockets is
measured by ``benchmarks/e2e``, which carries its own generator.
"""

from .arrivals import ARRIVAL_PROCESSES, arrival_times, offer
from .gateway import GatewayConfig, RequestCollector, ServingGateway
from .loadgen import LoadGenerator, LoadReport
from .router import (
    Outcome,
    RecRequest,
    RecResponse,
    RequestRouter,
    Scenario,
    ScenarioStats,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "arrival_times",
    "offer",
    "RecRequest",
    "RecResponse",
    "RequestRouter",
    "Scenario",
    "ScenarioStats",
    "Outcome",
    "LoadGenerator",
    "LoadReport",
    "GatewayConfig",
    "RequestCollector",
    "ServingGateway",
]
