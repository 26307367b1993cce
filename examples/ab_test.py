"""Continuous experimentation — rMF against the production comparators (§6.2).

Run:  python examples/ab_test.py

What it shows: the live-evaluation methodology of the paper, upgraded to
the :class:`repro.eval.Experiment` platform — team-draft interleaved
traffic (every request is a multileaved list drafted from all arms, which
slashes the variance of CTR deltas), run for the full horizon with CTR
tracked per day — on the synthetic world whose ground-truth click model
simulates the users.  Batch arms (AR, SimHash)
retrain daily; Hot and rMF update in real time.
"""

from repro import RealtimeRecommender, SyntheticWorld, VirtualClock
from repro.baselines import (
    AssociationRuleRecommender,
    HotRecommender,
    SimHashCFRecommender,
)
from repro.data.synthetic import paper_world_config
from repro.eval import Experiment

DAYS = 5


def main() -> None:
    world = SyntheticWorld(paper_world_config(n_users=150, n_videos=200, days=DAYS))
    arms = {
        "Hot": HotRecommender(clock=VirtualClock(0.0), exclude_watched=False),
        "AR": AssociationRuleRecommender(
            min_support=2, min_confidence=0.02, exclude_watched=False
        ),
        "SimHash": SimHashCFRecommender(
            min_similarity=0.55, exclude_watched=False
        ),
        "rMF": RealtimeRecommender(
            world.videos, users=world.users, clock=VirtualClock(0.0)
        ),
    }
    experiment = Experiment(world, arms, days=DAYS, assignment="interleave")
    print(
        f"running a {DAYS}-day interleaved experiment with arms: "
        f"{', '.join(arms)} ..."
    )
    result = experiment.run()

    daily = result.daily_ctr()
    print("\nper-day CTR (Figure 7 series):")
    header = "day  " + "  ".join(f"{arm:>8}" for arm in arms)
    print(header)
    for day in range(result.days):
        cells = "  ".join(
            f"{daily[arm][day]:8.4f}" if daily[arm][day] is not None else
            f"{'-':>8}"
            for arm in arms
        )
        print(f"{day + 1:>3}  {cells}")

    print("\noverall CTR:")
    for arm, ctr in sorted(
        result.overall_ctr().items(), key=lambda kv: -kv[1]
    ):
        print(f"  {arm:<8} {ctr:.4f}")

    print("\npairwise improvements (Table 5 style):")
    improvements = result.improvement_table()
    for (a, b) in (("rMF", "Hot"), ("rMF", "AR"), ("rMF", "SimHash")):
        print(f"  {a} over {b}: {100 * improvements[(a, b)]:+.1f} %")


if __name__ == "__main__":
    main()
