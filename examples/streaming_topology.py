"""Streaming topology — run the paper's Figure 2 Storm topology end to end.

Run:  python examples/streaming_topology.py

What it shows:
  1. serialising a synthetic action stream to raw log lines (the format
     the production spout parses),
  2. assembling the Figure 2 topology — spout, UserHistory, ComputeMF ->
     MFStorage (fields-grouped single-writer vector updates), GetItemPairs
     -> ItemPairSim -> ResultStorage — over one in-memory model state,
  3. executing it on the threaded executor with real per-worker queues,
  4. serving recommendations straight from the model state the
     topology built,
  5. replaying the same log under the deterministic executor, where the
     topology is the executable specification of Algorithm 1: it learns
     video factors byte-identical to ``RealtimeRecommender.observe_stream``.
"""

from repro import RealtimeRecommender, SyntheticWorld, VirtualClock, WorldConfig
from repro.storm import LocalExecutor, ThreadedExecutor
from repro.topology import build_recommendation_topology


def main() -> None:
    world = SyntheticWorld(WorldConfig(n_users=150, n_videos=200, days=2, seed=8))
    actions = world.generate_actions()
    log_lines = [a.to_log_line() for a in actions]
    print(f"raw log: {len(log_lines):,} lines")

    clock = VirtualClock(0.0)
    topology, system = build_recommendation_topology(
        log_lines,
        world.videos,
        users=world.users,
        clock=clock,
        parallelism={
            "spout": 2,
            "user_history": 2,
            "compute_mf": 4,
            "mf_storage": 4,
            "get_item_pairs": 2,
            "item_pair_sim": 4,
            "result_storage": 4,
        },
    )
    print("\ntopology wiring:")
    print(topology.describe())

    metrics = ThreadedExecutor(topology).run(timeout=600.0)
    print("\ncomponent metrics:")
    for name, stats in metrics.snapshot().items():
        print(
            f"  {name:<16} processed={stats['processed']:>7,} "
            f"emitted={stats['emitted']:>7,} failed={stats['failed']} "
            f"mean_latency={stats['mean_latency_s'] * 1e6:7.1f} us"
        )

    clock.set(max(a.timestamp for a in actions) + 1)
    recommender = system.serving_recommender()
    print("\nserving from the topology's model state:")
    shown = 0
    for user in world.users:
        recs = recommender.recommend_ids(user, n=5)
        if recs:
            print(f"  {user}: {recs}")
            shown += 1
        if shown == 5:
            break

    print(
        f"\nmodel state: {system.model.n_users} users, "
        f"{system.model.n_videos} videos, "
        f"{len(system.table.tracked_videos())} similar-video lists"
    )

    specification, reference = build_recommendation_topology(
        log_lines, world.videos, users=world.users, clock=VirtualClock(0.0)
    )
    LocalExecutor(specification).run()
    sequential = RealtimeRecommender(
        world.videos,
        users=world.users,
        clock=VirtualClock(0.0),
        enable_demographic=False,
    )
    sequential.observe_stream(actions)
    _, want_vectors, want_biases = sequential.model.video_rows()
    _, got_vectors, got_biases = reference.model.video_rows()
    identical = (
        got_vectors.tobytes() == want_vectors.tobytes()
        and got_biases.tobytes() == want_biases.tobytes()
        and reference.model.mu == sequential.model.mu
    )
    print(f"\ndeterministic replay matches observe_stream byte for byte: {identical}")


if __name__ == "__main__":
    main()
