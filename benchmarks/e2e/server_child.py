"""The system under test, in its own process.

``python server_child.py '<spec json>'`` composes the real stack from
``repro``'s public API and either serves it over HTTP (``table`` and
``ann`` modes) or drives it in-process (``train`` mode).  The runner is the
only caller; it talks to this process through

* **stdout**: protocol lines start with ``@@ `` and carry one JSON object
  (``ready`` with the bound port, ``dumped``, ``result``, ``exit``);
  everything else is the program's own chatter and is ignored;
* **signals**: ``SIGUSR1`` writes the trace file, ``SIGTERM`` stops the
  gateway, writes the trace file and exits 0.  The runner may also
  ``SIGKILL`` this process — that is the crash the durable workload needs.

With ``trace`` set in the spec the hooks of :mod:`trace` are installed on
the classes *before* anything is composed.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import sys
import time

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

from trace import Tracer  # noqa: E402  (benchmarks/e2e/trace.py)
from traffic import WORLD_SEED, valid_list  # noqa: E402

#: ``Video.kind`` values of the synthetic ANN catalog (index partitions).
ANN_KINDS = ("music", "news", "sport", "film", "kids")


def emit(event: str, **fields) -> None:
    print("@@ " + json.dumps({"event": event, **fields}), flush=True)


# ----------------------------------------------------------------------
# HTTP modes
# ----------------------------------------------------------------------


def build_table_gateway(spec: dict):
    """What ``repro-serve`` serves: the CLI's own composition, its defaults."""
    from repro.serving.cli import build_demo_gateway
    from repro.serving.gateway import GatewayConfig

    return build_demo_gateway(
        GatewayConfig(port=0),
        rate=None,
        max_concurrency=None,
        n_users=spec["n_users"],
        n_videos=spec["n_videos"],
        seed=WORLD_SEED,
        data_dir=spec.get("data_dir"),
        fsync=spec.get("fsync", "interval"),
    )


def build_ann_gateway(spec: dict):
    """ANN retrieval over a large catalog, from public constructors.

    Mirrors the CLI's wiring (observability on, breaker, hot fallback, no
    admission limit) with ``retrieval.mode="ann"``; the factor catalog is
    the runner's input, loaded like a model snapshot.
    """
    from repro.baselines import HotRecommender
    from repro.clock import SystemClock
    from repro.config import MFConfig, ReproConfig, RetrievalConfig
    from repro.core import RealtimeRecommender
    from repro.data import Video
    from repro.obs import Observability
    from repro.reliability.overload import CircuitBreaker
    from repro.serving.gateway import GatewayConfig, ServingGateway
    from repro.serving.router import RequestRouter

    catalog = np.load(spec["catalog"])
    vectors, biases = catalog["video_vectors"], catalog["video_biases"]
    kinds, user_vectors = catalog["video_kinds"], catalog["user_vectors"]
    video_ids = [video_id(i) for i in range(len(vectors))]
    videos = {
        vid: Video(vid, ANN_KINDS[kind], 300.0)
        for vid, kind in zip(video_ids, kinds.tolist())
    }
    obs = Observability.create()
    recommender = RealtimeRecommender(
        videos,
        config=ReproConfig(
            mf=MFConfig(f=int(vectors.shape[1])),
            retrieval=RetrievalConfig(mode="ann"),
        ),
        clock=SystemClock(),
        obs=obs,
    )
    recommender.model.put_params_many(
        [
            ("video", vid, vector, float(bias))
            for vid, vector, bias in zip(video_ids, vectors, biases)
        ]
    )
    recommender.model.put_params_many(
        [
            ("user", user_id(i), vector, 0.0)
            for i, vector in enumerate(user_vectors)
        ]
    )
    recommender.rebuild_index()
    breaker = CircuitBreaker(name="primary", registry=obs.registry)
    router = RequestRouter(
        recommender, fallback=HotRecommender(), breaker=breaker, obs=obs
    )
    return ServingGateway(
        router,
        config=GatewayConfig(port=0),
        observe=recommender.observe,
        obs=obs,
        breaker=breaker,
    )


def video_id(i: int) -> str:
    return f"v{i:07d}"


def user_id(i: int) -> str:
    return f"u{i:05d}"


def serve(gateway, tracer: Tracer | None, trace_path: str | None) -> None:
    boot: dict = {}

    def dump() -> None:
        if tracer is not None and trace_path is not None:
            tracer.dump(trace_path, extra={"boot": boot})
            emit("dumped", path=trace_path)

    async def main() -> None:
        await gateway.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGUSR1, dump)
        if tracer is not None:
            boot.update(tracer.mark_ready())
        emit("ready", port=gateway.port)
        try:
            await stop.wait()
        finally:
            await gateway.stop()

    asyncio.run(main())
    dump()
    emit("exit")


# ----------------------------------------------------------------------
# train mode: no HTTP, the trainer and the topology do all the work
# ----------------------------------------------------------------------


def run_train(spec: dict, tracer: Tracer | None) -> dict:
    from repro.core import RealtimeRecommender
    from repro.data import ActionType, SyntheticWorld, UserAction
    from repro.data.stream import split_by_day
    from repro.data.synthetic import paper_world_config
    from repro.eval import recall_at_n
    from repro.storm import ThreadedExecutor
    from repro.topology import build_recommendation_topology

    clock = time.perf_counter
    attempted = failed = 0

    # Set-up: build the world, generate and split its action stream.
    setup_samples = []
    for _ in range(spec["setups"]):
        started = clock()
        world = SyntheticWorld(
            paper_world_config(
                seed=WORLD_SEED,
                n_users=spec["n_users"],
                n_videos=spec["n_videos"],
            )
        )
        split = split_by_day(
            world.generate_actions(), train_days=spec["train_days"]
        )
        setup_samples.append(clock() - started)
    train = split.train[: max(1, int(len(split.train) * spec["fraction"]))]
    recommender = RealtimeRecommender(world.videos, users=world.users)
    if tracer is not None:
        tracer.mark_ready()

    # (a) the online trainer absorbs the training stream.
    started = clock()
    trained = recommender.observe_stream(train)
    train_seconds = clock() - started
    attempted += trained

    # Quality guard: the paper's offline protocol on the held-out day(s).
    rng = random.Random(spec["sample_seed"])
    now = train[-1].timestamp
    liked = world.genuinely_liked(split.test)
    lists = {
        uid: recommender.recommend_ids(uid, n=10, now=now)
        for uid in sorted(liked)
    }
    recall = recall_at_n(lists, liked, 10)
    attempted += len(lists)
    failed += sum(
        1 for ids in lists.values() if not valid_list(ids, world.videos)
    )

    # Read path in-process: one caller back to back, both scenarios.
    users, videos = sorted(world.users), sorted(world.videos)
    latencies = []
    loop_started = clock()
    deadline = loop_started + spec["read_seconds"]
    while True:
        uid = rng.choice(users)
        current = rng.choice(videos) if rng.random() < 0.5 else None
        started = clock()
        ids = recommender.recommend_ids(
            uid, current_video=current, n=10, now=now
        )
        ended = clock()
        latencies.append((ended - started) * 1e3)
        if not valid_list(ids, world.videos):
            failed += 1
        if ended >= deadline:
            break
    attempted += len(latencies)
    read_rate = len(latencies) / (ended - loop_started)

    # Freshness without a gateway: one PLAY by a never-seen user must
    # change what that user is served.
    visible = []
    for i, vid in enumerate(spec["probe_videos"]):
        uid = f"probe-{spec['sample_seed']}-{i}"
        stamp = now + 1.0 + i
        before = recommender.recommend_ids(uid, n=10, now=stamp)
        started = clock()
        recommender.observe(UserAction(stamp, uid, vid, ActionType.PLAY))
        after = recommender.recommend_ids(uid, n=10, now=stamp)
        elapsed = clock() - started
        attempted += 1
        if after != before and valid_list(after, world.videos, least=1):
            visible.append(elapsed * 1e3)
        else:
            failed += 1

    # (b) the same actions through the Figure-2 topology, its threads
    # confined to one CPU when the runner says so.
    if spec.get("topology_cpu") is not None:
        try:
            os.sched_setaffinity(0, {spec["topology_cpu"]})
        except OSError:
            pass
    head = list(train[: spec["topology_actions"]])
    started = clock()
    topology, _system = build_recommendation_topology(
        head, world.videos, users=world.users
    )
    snapshot = ThreadedExecutor(topology).run(timeout=150.0).snapshot()
    topology_seconds = clock() - started
    attempted += len(head)
    edges = (
        ("spout", "user_history"),
        ("spout", "compute_mf"),
        ("spout", "get_item_pairs"),
        ("compute_mf", "mf_storage"),
        ("get_item_pairs", "item_pair_sim"),
        ("item_pair_sim", "result_storage"),
    )
    lost = sum(
        abs(snapshot[src]["emitted"] - snapshot[dst]["processed"])
        for src, dst in edges
    )
    lost += abs(snapshot["spout"]["emitted"] - len(head))
    failed += int(lost + sum(c["failed"] for c in snapshot.values()))

    return {
        "attempted": attempted,
        "failed": failed,
        "setup_samples_s": setup_samples,
        "trained": trained,
        "train_seconds": train_seconds,
        "recall_at_10": recall,
        "eval_users": len(lists),
        "read_latencies_ms": latencies,
        "read_rate": read_rate,
        "visible_ms": visible,
        "topology_actions": len(head),
        "topology_seconds": topology_seconds,
        "trace": tracer.snapshot() if tracer is not None else None,
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    tracer = Tracer().install() if spec.get("trace") else None
    trace_path = spec.get("trace_path")
    if spec["mode"] == "train":
        result = run_train(spec, tracer)
        if tracer is not None and trace_path is not None:
            tracer.dump(trace_path)
        emit("result", **result)
        return 0
    build = build_ann_gateway if spec["mode"] == "ann" else build_table_gateway
    serve(build(spec), tracer, trace_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
