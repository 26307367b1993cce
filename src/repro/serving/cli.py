"""``repro-serve`` — start the HTTP gateway from the shell.

Boots a small synthetic world, trains the paper's CombineModel on its
action stream, and serves it through :class:`~repro.serving.gateway
.ServingGateway` with the full overload chain wired: admission control,
a circuit breaker around the primary, and a hot-videos fallback.  Meant
for demos, smoke tests, and poking the endpoints with curl::

    repro-serve --port 8080 --deadline-ms 50 &
    curl -s localhost:8080/healthz
    curl -s -XPOST localhost:8080/recommend -d '{"user_id": "u0001"}'

The recommender and the fallback share one model state; training,
``/ingest`` and recovery feed both through one ``observe``.  With
``--data-dir`` every observed action hits a write-ahead log first (that
append is the durability point), the first boot is sealed with a full
checkpoint of the state, and a restart restores it and replays the WAL
after it instead of retraining — it serves the same recommendations.

Everything is stdlib + numpy; the process serves until interrupted.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

from ..baselines import HotRecommender
from ..clock import SystemClock
from ..core import RealtimeRecommender
from ..data import SyntheticWorld, UserAction
from ..data.synthetic import paper_world_config
from ..config import ReproConfig, RetrievalConfig
from ..obs import Observability
from ..reliability import ActionWAL, CheckpointManager, RecoveryManager
from ..reliability.overload import AdmissionController, CircuitBreaker
from .gateway import GatewayConfig, ServingGateway
from .router import RequestRouter

__all__ = ["build_demo_gateway", "main"]

#: ``--fsync`` policies for ``--data-dir`` writes.
FSYNC_POLICIES = {
    "always": "fsync each WAL append and each checkpoint",
    "interval": "flush each WAL append to the OS, fsync checkpoints",
    "never": "no fsync",
}


def build_demo_gateway(
    config: GatewayConfig,
    rate: float | None,
    max_concurrency: None = None,
    n_users: int = 120,
    n_videos: int = 150,
    seed: int = 2016,
    data_dir: str | Path | None = None,
    fsync: str = "interval",
    retrieval: str = "table",
) -> ServingGateway:
    """A fully-wired gateway over a freshly trained synthetic recommender.

    With ``data_dir`` actions are WAL-logged (``<data_dir>/wal``) and
    boot first restores the newest checkpoint (``<data_dir>/ckpt``) and
    replays the WAL after it; only a state-less data dir triggers the
    synthetic training pass, which is then sealed with a full checkpoint.
    ``fsync`` is one of :data:`FSYNC_POLICIES`.  The gateway's ``stop()``
    closes the WAL.

    ``rate`` is the admission token bucket's requests per second
    (``None``: no admission control).  ``max_concurrency`` must be
    ``None``: the gateway serves every request on one model thread, so a
    cap on concurrently served requests could never shed
    (``GatewayConfig.max_connections`` bounds the load a gateway takes).
    """
    if max_concurrency is not None:
        raise ValueError(
            "max_concurrency must be None: the gateway serves one "
            "/recommend request at a time"
        )
    world = SyntheticWorld(
        paper_world_config(seed=seed, n_users=n_users, n_videos=n_videos)
    )
    obs = Observability.create()
    wal = recovery = None
    if data_dir is not None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {sorted(FSYNC_POLICIES)}, got {fsync!r}"
            )
        data_root = Path(data_dir)
        wal = ActionWAL(data_root / "wal", fsync=(fsync == "always"))
        recovery = RecoveryManager(
            CheckpointManager(data_root / "ckpt", fsync=(fsync != "never")),
            wal,
        )
    recommender = RealtimeRecommender(
        world.videos,
        users=world.users,
        config=ReproConfig(retrieval=RetrievalConfig(mode=retrieval)),
        clock=SystemClock(),
        obs=obs,
        wal=wal,
    )
    # The fallback's hot table joins the recommender's state.
    fallback = HotRecommender(state=recommender.state)

    def observe(action: UserAction) -> None:
        recommender.observe(action)
        fallback.observe(action)

    recovered = False
    if recovery is not None:
        report = recovery.recover(recommender.state, observe)
        recovered = report.checkpoint is not None or report.replayed > 0
        if recovered:
            print(
                f"recovered from {data_dir}: checkpoint="
                f"{report.checkpoint.name if report.checkpoint else 'none'} "
                f"replayed={report.replayed} (seq {report.last_seq})",
                flush=True,
            )
    if not recovered:
        for action in world.generate_actions():
            observe(action)
        if recovery is not None:
            recovery.checkpoint(recommender.state)
    # Seal the boot path for factor-scan retrieval: whether the factors
    # came from training or checkpoint+WAL recovery, the scan's mirror is
    # rebuilt from the arena so it serves the exact same catalog.
    report = recommender.rebuild_index()
    if report is not None:
        print(
            f"factor mirror built: {report['indexed']} videos "
            f"in {report['build_seconds'] * 1e3:.0f}ms",
            flush=True,
        )
    admission = (
        AdmissionController(rate=rate, registry=obs.registry)
        if rate is not None
        else None
    )
    breaker = CircuitBreaker(name="primary", registry=obs.registry)
    router = RequestRouter(
        recommender,
        fallback=fallback,
        admission=admission,
        breaker=breaker,
        obs=obs,
    )
    gateway = ServingGateway(
        router,
        config=config,
        observe=observe,
        obs=obs,
        breaker=breaker,
    )
    if wal is not None:
        gateway.on_stop.callback(wal.close)
    return gateway


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve real-time recommendations over HTTP.",
    )
    defaults = GatewayConfig()
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument(
        "--port", type=int, default=8080, help="0 picks an ephemeral port"
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=defaults.max_connections,
        help="open sockets beyond this are answered 503 and closed",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=defaults.deadline_ms,
        help="default per-request latency budget (504 when exceeded)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="admission-control requests/second, at least 1 "
        "(excess is shed with 503)",
    )
    parser.add_argument(
        "--users", type=int, default=120, help="synthetic world size"
    )
    parser.add_argument(
        "--videos", type=int, default=150, help="synthetic world size"
    )
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--data-dir",
        default=None,
        help="persist model state here (WAL + full checkpoints); "
        "a restart recovers instead of retraining",
    )
    parser.add_argument(
        "--fsync",
        choices=list(FSYNC_POLICIES),
        default="interval",
        help="durability policy for --data-dir writes: "
        + "; ".join(f"{name}: {what}" for name, what in FSYNC_POLICIES.items()),
    )
    parser.add_argument(
        "--retrieval",
        choices=("table", "ann"),
        default="table",
        help="candidate retrieval: similar-video tables (the paper) "
        "or an exact scan over the learned video factors",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = GatewayConfig(
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        deadline_ms=args.deadline_ms,
    )
    print(
        f"preparing demo recommender ({args.users} users, "
        f"{args.videos} videos)...",
        flush=True,
    )
    gateway = build_demo_gateway(
        config,
        rate=args.rate,
        n_users=args.users,
        n_videos=args.videos,
        seed=args.seed,
        data_dir=args.data_dir,
        fsync=args.fsync,
        retrieval=args.retrieval,
    )

    async def serve() -> None:
        await gateway.start()
        print(
            f"repro-serve listening on http://{config.host}:{gateway.port} "
            f"(max {config.max_connections} connections)",
            flush=True,
        )
        try:
            await gateway.serve_forever()
        finally:
            await gateway.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
