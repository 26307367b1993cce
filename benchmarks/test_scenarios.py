"""Scenario sweep — the four adversarial regimes x the four live-test arms.

The paper's live experiment (§6.2) ran on benign organic traffic; the
scenario engine stresses the same four arms under the regimes where
real-time updating is supposed to pay off: a flash crowd, daily catalog
churn with cold items, a diurnal traffic wave, and a mid-stream preference
drift.  Per scenario the report must be valid and the paper's CTR
ordering (Hot < AR ~ SimHash < rMF) must survive the disturbance.

Every run emits one schema-versioned ``BENCH_scenarios.json`` with the
flattened metrics of all four scenarios, which CI validates and archives.
"""

from repro.eval.scenarios import (
    SCENARIO_LIBRARY,
    run_scenario,
    validate_scenario_report,
)

from _emit import emit_bench
from _helpers import format_rows, report, smoke_scaled

DAYS = smoke_scaled(8, 6)
N_USERS = 120
N_VIDEOS = 160
ARMS = ("Hot", "AR", "SimHash", "rMF")


def test_scenario_sweep(benchmark):
    reports = {}

    def run_all():
        for name, factory in sorted(SCENARIO_LIBRARY.items()):
            reports[name] = run_scenario(
                factory(), days=DAYS, n_users=N_USERS, n_videos=N_VIDEOS
            )
        return reports

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    ctr_rows = []
    metrics = {}
    for name, scenario_report in sorted(reports.items()):
        doc = scenario_report.to_doc()
        assert validate_scenario_report(doc) == []
        metrics.update(scenario_report.flat_metrics())

        row = {"scenario": name}
        for arm in ARMS:
            ctr = doc["arms"][arm]["overall_ctr"]
            row[arm] = round(ctr, 4) if ctr is not None else "-"
        row["ordering_ok"] = doc["ctr_ordering_ok"]
        ctr_rows.append(row)

    report(
        "scenarios_ctr",
        format_rows(
            ctr_rows, columns=["scenario", *ARMS, "ordering_ok"]
        ),
    )
    emit_bench(
        "scenarios",
        metrics,
        params={"days": DAYS, "n_users": N_USERS, "n_videos": N_VIDEOS},
    )

    # The published ordering must survive every adversarial regime.
    for name, scenario_report in reports.items():
        assert scenario_report.ctr_ordering_ok, (
            f"CTR ordering broke under {name}: "
            f"{ {a: s['overall_ctr'] for a, s in scenario_report.arms.items()} }"
        )
