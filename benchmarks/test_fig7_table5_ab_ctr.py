"""Figure 7 + Table 5 — online A/B testing CTR over ten days.

Paper: live traffic split over four methods for ten days; CTR ordering is
Hot worst, AR ~ SimHash in the middle, rMF best in most cases; Table 5
reports the pairwise relative improvements.  Absolute CTRs are withheld as
proprietary — the *ordering* is the published result.

Here: the simulated A/B harness drives the same four methods (the batch
comparators retrained daily, exactly like production) over ten simulated
days of the calibrated world.  Shape checks: rMF's overall CTR beats every
comparator, Hot is the weakest of the model-driven arms' ceiling, and rMF
wins the plurality of days.
"""

from repro.baselines import (
    AssociationRuleRecommender,
    HotRecommender,
    SimHashCFRecommender,
)
from repro.clock import VirtualClock
from repro.core import COMBINE_MODEL, GroupedRecommender
from repro.eval import Experiment

from _helpers import build_world, format_rows, report, variant_config

DAYS = 10


def _arms(world):
    # The rMF arm is the *production* configuration of the paper: the
    # CombineModel trained per demographic group (§5.2.2) with demographic
    # filtering (§5.2.1) — exactly what Tencent deployed in the live test.
    rmf_config = variant_config(COMBINE_MODEL).with_overrides(
        recommend={"max_candidates": 20, "demographic_slots": 0.05}
    )
    return {
        "Hot": HotRecommender(clock=VirtualClock(0.0), exclude_watched=False),
        "AR": AssociationRuleRecommender(
            min_support=2, min_confidence=0.02, exclude_watched=False
        ),
        "SimHash": SimHashCFRecommender(
            min_similarity=0.55, exclude_watched=False
        ),
        "rMF": GroupedRecommender(
            world.videos,
            world.users,
            config=rmf_config,
            variant=COMBINE_MODEL,
            clock=VirtualClock(0.0),
            enable_demographic=True,
        ),
    }


def test_fig7_table5_ab_ctr(benchmark):
    world = build_world(n_users=200, n_videos=250, days=DAYS)
    # assignment="hash": the paper's fixed per-user traffic split.
    harness = Experiment(
        world,
        arms=_arms(world),
        days=DAYS,
        seed=17,
        assignment="hash",
    )

    result = benchmark.pedantic(harness.run, rounds=1, iterations=1)

    daily = result.daily_ctr()
    rows = []
    for day in range(DAYS):
        row = {"day": day + 1}
        row.update(
            {
                # None marks a zero-impression day (batch arms before
                # their first retrain), distinct from a true 0.0 CTR.
                arm: round(series[day], 4) if series[day] is not None else "-"
                for arm, series in daily.items()
            }
        )
        rows.append(row)
    overall = result.overall_ctr()
    rows.append(
        {"day": "all", **{arm: round(ctr, 4) for arm, ctr in overall.items()}}
    )
    report(
        "fig7_ab_ctr",
        format_rows(rows, columns=["day", "Hot", "AR", "SimHash", "rMF"]),
    )

    improvements = result.improvement_table()
    imp_rows = [
        {
            "comparison": f"{a} vs {b}",
            "improvement_percent": round(100 * improvements[(a, b)], 2),
        }
        for (a, b) in (
            ("rMF", "Hot"),
            ("rMF", "AR"),
            ("rMF", "SimHash"),
            ("AR", "Hot"),
            ("SimHash", "Hot"),
        )
    ]
    report("table5_improvements", format_rows(imp_rows))

    # Shape: rMF best overall; every personalised method beats Hot.
    assert overall["rMF"] > overall["Hot"]
    assert overall["rMF"] >= overall["AR"]
    assert overall["rMF"] >= overall["SimHash"]
    # rMF wins more days than any other arm ("in most cases").
    wins = {arm: result.days_won(arm) for arm in overall}
    assert wins["rMF"] >= max(w for a, w in wins.items() if a != "rMF")
