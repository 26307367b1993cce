"""Serve while training — the system's defining real-time property.

Run:  python examples/serve_while_train.py

What it shows: the load generator offers the recommendation router both
Figure 6 scenarios while a trainer thread streams fresh user actions into
the very same model — recommendations reflect activity from seconds ago,
and serving latency stays in the millisecond band throughout.  Arrivals
are paced on a virtual clock, so the requests fire back to back; latency
is wall time measured by the router.  Over real sockets this is the
``serve_while_train`` workload of ``benchmarks/e2e``.
"""

import threading

from repro import RealtimeRecommender, SyntheticWorld, VirtualClock
from repro.data import split_by_day
from repro.data.synthetic import paper_world_config
from repro.serving import LoadGenerator, RequestRouter, Scenario


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
    generator = LoadGenerator(
        router, list(world.users), list(world.videos), seed=1
    )
    trainer = threading.Thread(
        target=recommender.observe_stream, args=(split.test,)
    )
    print(
        f"offering 1,000 requests while streaming "
        f"{len(split.test):,} day-7 actions into the model ..."
    )
    trainer.start()
    load = generator.run_offered(1000, 100.0, VirtualClock(clock.now()))
    trained = recommender.trainer.stats.seen - seen_before
    trainer.join()

    print(f"\nserved {load.accepted:,} requests with {load.errors} errors")
    print(
        f"latency: mean {load.mean_latency_ms:.2f} ms, "
        f"p99 {load.p99_latency_ms:.2f} ms"
    )
    print(f"actions trained during the run: {trained:,}")
    for scenario in Scenario:
        stats = router.stats(scenario)
        print(
            f"  {scenario.value:<16} requests={stats.requests:<5} "
            f"empty={stats.empty:<4} "
            f"mean={stats.latency.mean * 1000:.2f} ms"
        )


if __name__ == "__main__":
    main()
