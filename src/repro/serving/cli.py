"""``repro-serve`` — start the HTTP gateway from the shell.

Boots a small synthetic world, trains the paper's CombineModel on its
action stream, and serves it through :class:`~repro.serving.gateway
.ServingGateway` with the full overload chain wired: admission control,
a circuit breaker around the primary, and a hot-videos fallback.  Meant
for demos, smoke tests, and poking the endpoints with curl::

    repro-serve --port 8080 --deadline-ms 50 &
    curl -s localhost:8080/healthz
    curl -s -XPOST localhost:8080/recommend -d '{"user_id": "u0001"}'

With ``--data-dir`` the model plane becomes durable: every observed
action hits a write-ahead log first (that append is the durability
point), the KV store is a :class:`~repro.kvstore.durable.DurableKVStore`
under a write-back cache that is flushed at checkpoints, and on boot the
process recovers checkpoint + WAL tail instead of retraining — kill it
and restart it and it serves the same recommendations.

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
from ..data import SyntheticWorld
from ..data.synthetic import paper_world_config
from ..config import ReproConfig, RetrievalConfig
from ..kvstore import FSYNC_POLICIES, DurableKVStore, ReadThroughCache
from ..obs import Observability
from ..reliability import ActionWAL, CheckpointManager, RecoveryManager
from ..reliability.overload import AdmissionController, CircuitBreaker
from .gateway import GatewayConfig, ServingGateway
from .router import RequestRouter

__all__ = ["build_demo_gateway", "main"]


def build_demo_gateway(
    config: GatewayConfig,
    rate: float | None,
    max_concurrency: int | None,
    n_users: int = 120,
    n_videos: int = 150,
    seed: int = 2016,
    data_dir: str | Path | None = None,
    fsync: str = "interval",
    retrieval: str = "table",
) -> ServingGateway:
    """A fully-wired gateway over a freshly trained synthetic recommender.

    With ``data_dir`` the recommender's store is a durable tier
    (``<data_dir>/kv``) under a write-back cache, actions are WAL-logged
    (``<data_dir>/wal``), and boot first attempts checkpoint-restore + WAL
    replay; only a state-less data dir triggers the synthetic training
    pass, which is then flushed and sealed with an incremental checkpoint.
    """
    world = SyntheticWorld(
        paper_world_config(seed=seed, n_users=n_users, n_videos=n_videos)
    )
    obs = Observability.create()
    store = wal = recovery = None
    if data_dir is not None:
        data_root = Path(data_dir)
        durable = DurableKVStore(
            data_root / "kv", fsync=fsync, registry=obs.registry
        )
        store = ReadThroughCache(durable, capacity=4096)
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
        store=store,
        wal=wal,
    )
    fallback = HotRecommender()
    recovered = False
    if recovery is not None and store is not None:
        # KV-backed state comes back from checkpoint + replayed tail; the
        # demographic hot lists and the hot-videos fallback live in memory
        # only, so they see the whole log in order (``rebuild``, then tail).
        report = recovery.recover(
            store,
            lambda action: (
                recommender.observe(action),
                fallback.observe(action),
            ),
            rebuild=lambda action: (
                recommender.observe_demographic(action),
                fallback.observe(action),
            ),
        )
        recovered = report.checkpoint is not None or report.replayed > 0
        if recovered:
            print(
                f"recovered from {data_dir}: checkpoint="
                f"{report.checkpoint.name if report.checkpoint else 'none'} "
                f"replayed={report.replayed} (seq {report.last_seq})",
                flush=True,
            )
    if not recovered:
        actions = world.generate_actions()
        recommender.observe_stream(actions)
        for action in actions:
            fallback.observe(action)
        if recovery is not None and store is not None:
            recovery.checkpoint(store, incremental=True)
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
        AdmissionController(
            rate=rate,
            max_concurrency=max_concurrency,
            registry=obs.registry,
        )
        if rate is not None or max_concurrency is not None
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
    return ServingGateway(
        router,
        config=config,
        observe=recommender.observe,
        obs=obs,
        breaker=breaker,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve real-time recommendations over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080, help="0 picks an ephemeral port"
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=256,
        help="open sockets beyond this are answered 503 and closed",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request latency budget (504 when exceeded)",
    )
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="how long the coalescing collector holds a batch open",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=64,
        help="flush a coalesced batch at this size even inside the window",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="admission-control requests/second, at least 1 "
        "(excess is shed with 503)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="admission-control cap on concurrently served requests",
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
        help="persist model state here (durable KV + WAL + checkpoints); "
        "a restart recovers instead of retraining",
    )
    parser.add_argument(
        "--fsync",
        choices=list(FSYNC_POLICIES),
        default="interval",
        help="durability policy for --data-dir writes",
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
        batch_window_ms=args.batch_window_ms,
        batch_max=args.batch_max,
    )
    print(
        f"preparing demo recommender ({args.users} users, "
        f"{args.videos} videos)...",
        flush=True,
    )
    gateway = build_demo_gateway(
        config,
        rate=args.rate,
        max_concurrency=args.max_inflight,
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
            f"(batch window {config.batch_window_ms}ms, "
            f"max {config.max_connections} connections)",
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
