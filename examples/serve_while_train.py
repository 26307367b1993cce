"""Serve while training — the system's defining real-time property.

Run:  python examples/serve_while_train.py

What it shows: a seeded request loop sends the recommendation router both
Figure 6 scenarios while a trainer thread streams fresh user actions into
the very same model — recommendations reflect activity from seconds ago,
and serving latency stays in the millisecond band throughout.  Requests
are stamped 10 ms apart from the first day-7 action but fire back to
back; latency is wall time measured by the router.  Over real sockets
this is the ``serve_while_train`` workload of ``benchmarks/e2e``.
"""

import random
import threading

from repro import RealtimeRecommender, SyntheticWorld, VirtualClock
from repro.data import split_by_day
from repro.data.synthetic import paper_world_config
from repro.serving import RecRequest, RequestRouter

N_REQUESTS = 1000


def main() -> None:
    world = SyntheticWorld(paper_world_config(n_users=200, n_videos=250))
    split = split_by_day(world.generate_actions(), train_days=6)

    clock = VirtualClock(0.0)
    recommender = RealtimeRecommender(
        world.videos, users=world.users, clock=clock
    )
    print(f"warm-starting on {len(split.train):,} actions ...")
    recommender.observe_stream(split.train)
    clock.set(min(a.timestamp for a in split.test))
    seen_before = recommender.trainer.stats.seen

    router = RequestRouter(recommender)
    rng = random.Random(1)
    users, videos = list(world.users), list(world.videos)
    start = clock.now()
    trainer = threading.Thread(
        target=recommender.observe_stream, args=(split.test,)
    )
    print(
        f"sending {N_REQUESTS:,} requests while streaming "
        f"{len(split.test):,} day-7 actions into the model ..."
    )
    trainer.start()
    for i in range(N_REQUESTS):
        current = rng.choice(videos) if rng.random() < 0.5 else None
        router.handle(
            RecRequest(
                rng.choice(users),
                current_video=current,
                timestamp=start + 0.01 * (i + 1),
            )
        )
    trained = recommender.trainer.stats.seen - seen_before
    trainer.join()

    snapshot = router.snapshot()
    served = sum(stats["requests"] for stats in snapshot.values())
    errors = sum(stats["errors"] for stats in snapshot.values())
    print(f"\nserved {served:,} requests with {errors} errors")
    print(f"actions trained during the run: {trained:,}")
    for scenario, stats in snapshot.items():
        print(
            f"  {scenario:<16} requests={stats['requests']:<5} "
            f"empty={stats['empty']:<4} "
            f"mean={stats['mean_latency_ms']:.2f} ms "
            f"p99={stats['p99_latency_ms']:.2f} ms"
        )


if __name__ == "__main__":
    main()
