"""End-to-end benchmark of the real-time recommender: one command.

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload train_stream --seed 7
    python3 benchmarks/e2e/run.py --workload serve_while_train --trace
    python3 benchmarks/e2e/run.py --smoke              # < 60 s, tiny worlds
    python3 benchmarks/e2e/run.py --aa 10              # spread against bounds

For each selected workload the real stack is booted in a child process,
driven, checked, and every metric is printed by name and unit.  The last
line of standard output is one JSON object — ``correct``, ``attempted``,
``failed``, ``metrics`` — holding the end-to-end metrics of
``BENCHMARK.json`` (or, with ``--trace``, its per-layer metrics) for the
last workload run.  The exit code is non-zero when a check failed.

See README.md next to this file for the workloads, the metric glossary and
how the metrics are expected to move together.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # a checkout must stay as git left it

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
CONTRACT = REPO / "BENCHMARK.json"

#: Printed, kept in the baseline file and judged by ``--aa``, but not in
#: ``BENCHMARK.json`` and so not gated.  ``name: (unit, better, where)``.
#: ``where`` names the one workload that measures it (the contract has every
#: workload print every gated metric); ``None`` means every workload does
#: and the metric is *unresolved*: in the committed calibration its spread
#: on at least one workload is wider than the largest bound a metric may
#: carry, and a gate under the noise reports false regressions.
PRINTED_ONLY = {
    "recommend_p50_ms": ("ms", "lower", None),
    "recommend_p90_ms": ("ms", "lower", None),
    "recommend_capacity_rps": ("req/s", "higher", None),
    "ingest_capacity_aps": ("actions/s", "higher", None),
    "update_visible_p50_ms": ("ms", "lower", None),
    "recommend_idle_p50_ms": ("ms", "lower", "serve_while_train"),
    "recommend_idle_p90_ms": ("ms", "lower", "serve_while_train"),
    "recovery_s": ("s", "lower", "durable_ingest_recover"),
    "topology_actions_per_s": ("actions/s", "higher", "train_stream"),
}
#: What ``--aa`` holds a printed-only metric's spread against.
LARGEST_BOUND = 0.25


def load_contract() -> dict:
    with open(CONTRACT, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv: list[str], contract: dict) -> argparse.Namespace:
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=2016,
                        help="draws the traffic (requests, probes, queries)")
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="length of the measured phases of one run")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="traced run: print the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="3 s of phases on tiny worlds, one set-up")
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="run N seeds on this commit, report the spread")
    parser.add_argument("--write-baseline", action="store_true",
                        help="with --aa: write baseline/<seed>.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 3.0)
    args.workload = args.workload or names
    return args


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def report(outcome, contract: dict, traced: bool) -> None:
    """Every metric of one run by name and unit."""
    declared = {m["name"]: m for m in contract["end_to_end"]}
    print(f"\n== {outcome.workload}  seed={outcome.seed}  "
          f"trace={int(traced)} ==")
    print("end-to-end" + ("  (traced run: do not compare)" if traced else ""))
    for name, spec in declared.items():
        arrow = "^" if spec["better"] == "higher" else "v"
        print(f"  {name:<28}{fmt(outcome.e2e.get(name, 0.0)):>12} "
              f"{spec['unit']:<10} {arrow} bound {spec['bound']:.0%}")
    for name, (unit, better, where) in PRINTED_ONLY.items():
        if name in outcome.e2e and name not in declared:
            arrow = "^" if better == "higher" else "v"
            why = "this workload only" if where else "unresolved"
            print(f"  {name:<28}{fmt(outcome.e2e[name]):>12} {unit:<10} "
                  f"{arrow} not gated ({why})")
    for key, value in outcome.detail.items():
        if key.endswith("_samples"):
            print(f"  {key:<28} n={value['n']}  p95={fmt(value['p95_ms'])} ms"
                  f"  p99={fmt(value['p99_ms'])} ms  (recorded; the sample "
                  f"supports up to p{value['top_percentile']:g})")
    if traced:
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        print("per-layer")
        for name in sorted(outcome.layers):
            if name in units and outcome.layers[name]:
                print(f"  {name:<44}{fmt(outcome.layers[name]):>12} "
                      f"{units[name]}")
        missing = outcome.detail.get("trace_missing") or []
        print(f"trace_missing: {len(missing)}")
        for entry in missing:
            print(f"  {entry['hook']}: {entry['reason']}")
        if "attribution" in outcome.detail:
            share = outcome.detail["attribution"]
            print(f"attribution: {share['inside_submit_share']:.0%} of the "
                  f"client's service time lies inside RequestCollector."
                  f"submit, {share['inside_handle_share']:.0%} inside "
                  f"RequestRouter.handle; the rest is serving.gateway.http_s")
        for path in outcome.detail.get("trace_files", ()):
            print(f"spans: {path}")
    for error, count in outcome.detail.get("errors", {}).items():
        print(f"failed operations: {count} x {error}")
    known = outcome.detail.get("known_failing")
    if known:
        verdict = ("restarted (the race did not strike this time)"
                   if known["restarted"] else "REFUSED the write-ahead log")
        print(f"known failing check, not counted: {known['check']} - "
              f"{known['ingested']} actions from {known['clients']} clients, "
              f"then the restart {verdict}")
    if outcome.detail.get("void_runs_repeated"):
        print("a void run (the generator lagged) preceded this one and was "
              "measured again")
    print(f"wall: {outcome.detail.get('wall_s', 0.0)} s")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"checks: attempted={outcome.attempted} failed={outcome.failed} "
          f"failed_share={share:.4g} correct={outcome.correct}")
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}")


def contract_line(outcome, contract: dict, traced: bool) -> str:
    """The one-line result the driver reads (exactly the declared names)."""
    section = contract["per_layer" if traced else "end_to_end"]
    source = outcome.layers if traced else outcome.e2e
    metrics = {
        m["name"]: {"value": float(source.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in section
    }
    return json.dumps({
        "correct": bool(outcome.correct),
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    })


def run_once(name: str, args, seed: int):
    """One run of one workload; a void run is measured again, once.

    A run is void when the generator's own median scheduling lag exceeded
    1 ms in an open-loop phase: the generator, not the server, was
    measured (on this box: the host took the CPU away).  Its numbers mean
    nothing, so it is repeated rather than reported; a second void run is
    a failed check.
    """
    from workloads import RUNNERS, Options

    options = Options(seed=seed, seconds=args.seconds, trace=bool(args.trace),
                      smoke=args.smoke)
    started = time.perf_counter()
    outcome = RUNNERS[name](options)
    if outcome.problems and all(
        problem.startswith("void run") for problem in outcome.problems
    ):
        print(f"{name}: {outcome.problems[0]}; measuring again")
        outcome = RUNNERS[name](options)
        outcome.detail["void_runs_repeated"] = 1
    outcome.detail["wall_s"] = round(time.perf_counter() - started, 2)
    return outcome


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_aa(args, contract: dict) -> int:
    """N runs (seeds ``seed .. seed+N-1``) of every selected workload.

    Prints, per metric, the median, the quartiles and the inter-quartile
    spread as a share of the median next to the metric's bound — the
    figure the driver computes — and flags what exceeds it.
    """
    from stats import spread

    bounds = {m["name"]: (m["unit"], m["better"], m["bound"])
              for m in contract["end_to_end"]}
    calibration: dict = {}
    first: dict = {}
    status = 0
    for name in args.workload:
        runs = []
        for i in range(args.aa):
            outcome = run_once(name, args, args.seed + i)
            report(outcome, contract, traced=False)
            if not outcome.correct:
                status = 1
            runs.append(outcome)
        first[name] = {
            "seed": runs[0].seed, "e2e": runs[0].e2e,
            "attempted": runs[0].attempted, "failed": runs[0].failed,
            "detail": runs[0].detail,
        }
        table = {}
        print(f"\n-- {name}: {args.aa} runs, seeds "
              f"{args.seed}..{args.seed + args.aa - 1} --")
        print(f"  {'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        judged = dict(bounds)
        judged.update({
            metric: (unit, better, LARGEST_BOUND)
            for metric, (unit, better, where) in PRINTED_ONLY.items()
            if where in (None, name) and metric not in bounds
        })
        for metric, (unit, _better, bound) in judged.items():
            values = [run.e2e[metric] for run in runs if metric in run.e2e]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            share = spread(values)
            flag = ""
            if share > bound:
                flag = "  EXCEEDS BOUND"
            elif share > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {metric:<28}{fmt(median):>12}{fmt(q1):>12}{fmt(q3):>12}"
                  f"{share:>9.1%}{bound:>7.0%}{flag}")
            table[metric] = {
                "unit": unit, "values": values, "median": median,
                "q1": q1, "q3": q3, "spread": share, "bound": bound,
            }
        calibration[name] = table
    if args.write_baseline:
        target = HERE / "baseline" / f"{args.seed}.json"
        target.parent.mkdir(exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            json.dump({
                "seed": args.seed, "seconds": args.seconds, "runs": args.aa,
                "first_run": first, "calibration": calibration,
            }, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"\nbaseline written: {target}")
    return status


def main(argv: list[str]) -> int:
    if not CONTRACT.is_file() or not (REPO / "src" / "repro").is_dir():
        print("benchmarks/e2e: this is not a checkout of the repository "
              "(BENCHMARK.json or src/repro is missing)", file=sys.stderr)
        return 2
    contract = load_contract()
    args = parse_args(argv, contract)
    sys.path.insert(0, str(REPO / "src"))

    def interrupted(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    from harness import kill_all

    try:
        if args.aa:
            return run_aa(args, contract)
        status, lines = 0, []
        for name in args.workload:
            outcome = run_once(name, args, args.seed)
            report(outcome, contract, bool(args.trace))
            lines.append(contract_line(outcome, contract, bool(args.trace)))
            if not outcome.correct:
                status = 1
        print()
        for line in lines:
            print(line)
        return status
    finally:
        kill_all()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
