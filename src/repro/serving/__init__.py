"""Serving layer: request routing and the HTTP gateway.

Reproduces the operational envelope the paper quotes for production —
millisecond request latency under concurrent traffic while the model keeps
updating in real time (§4.1, §6).  :class:`ServingGateway` puts the
router behind real sockets with request coalescing.  Load over real
sockets is measured by ``benchmarks/e2e``, which carries its own
generator.
"""

from .gateway import GatewayConfig, RequestCollector, ServingGateway
from .router import (
    Outcome,
    RecRequest,
    RecResponse,
    RequestRouter,
    Scenario,
    ScenarioStats,
)

__all__ = [
    "RecRequest",
    "RecResponse",
    "RequestRouter",
    "Scenario",
    "ScenarioStats",
    "Outcome",
    "GatewayConfig",
    "RequestCollector",
    "ServingGateway",
]
