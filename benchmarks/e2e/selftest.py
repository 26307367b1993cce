"""Self-test of the benchmark's own rules (no server is started).

    python3 benchmarks/e2e/selftest.py

Asserts the three things every number in the report leans on:

* the percentile rule — a timing is reported at the highest percentile
  that still has at least ten samples beyond it;
* self time — a span's duration minus what its child spans cover, both on
  a synthetic span list and through the real wrappers on nested calls;
* a hook that no longer resolves is listed under ``missing``, never an
  error, and the remaining hooks are still installed.

Also checks that ``BENCHMARK.json`` stays within the driver's limits.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import percentile, spread, summarise, top_percentile  # noqa: E402
from trace import Tracer, layer_metrics, self_times  # noqa: E402


def test_percentile_rule() -> None:
    # n * (1 - p) samples lie beyond percentile p; ten are required.
    assert top_percentile(10_000) == 99.9
    assert top_percentile(1_000) == 99.0
    assert top_percentile(999) == 95.0
    assert top_percentile(200) == 95.0
    assert top_percentile(199) == 90.0
    assert top_percentile(100) == 90.0
    assert top_percentile(99) == 75.0
    assert top_percentile(40) == 75.0
    assert top_percentile(39) == 50.0
    values = [float(i) for i in range(1, 201)]
    summary = summarise(values)
    assert summary["n"] == 200 and summary["top"] == 95.0
    assert summary["top_value"] == summary["p95"] == percentile(values, 95.0)
    assert summary["p50"] == statistics.median(values)


def test_spread_is_the_drivers() -> None:
    values = [10.0, 11.0, 9.5, 10.5, 10.2, 9.9, 10.1, 10.8, 9.7, 10.3]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == (q3 - q1) / statistics.median(values)


def test_self_time_on_a_span_tree() -> None:
    # (id, name, start, end, parent, request):
    #   root [0, 10] -> a [1, 4] -> a1 [2, 3];  root -> b [5, 9]
    spans = [
        (0, "root", 0.0, 10.0, -1, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (2, "a1", 2.0, 3.0, 1, 0),
        (3, "b", 5.0, 9.0, 0, 0),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    # Self times partition the root's duration.
    assert sum(own.values()) == 10.0


class Inner:
    def work(self, seconds: float) -> int:
        time.sleep(seconds)
        return 1


class Outer:
    def __init__(self) -> None:
        self.inner = Inner()

    def run(self, keys: list[str]) -> list[int]:
        time.sleep(0.01)
        return [self.inner.work(0.02) for _ in keys]


def test_wrappers_subtract_children_and_skip_missing() -> None:
    module = Outer.__module__
    tracer = Tracer().install((
        (f"{module}:Outer.run", "test.outer", "", "arg", None),
        (f"{module}:Inner.work", "test.inner", "step", "one", None),
        (f"{module}:Inner.gone", "test.inner", "", None, None),
        ("no.such.module:Thing.method", "test.none", "", None, None),
    ))
    try:
        assert Outer().run(["a", "b"]) == [1, 1]
    finally:
        tracer.uninstall()
    assert Outer.run.__qualname__ == "Outer.run"  # restored

    snapshot = tracer.snapshot()
    missing = {entry["hook"] for entry in snapshot["missing"]}
    assert missing == {f"{module}:Inner.gone", "no.such.module:Thing.method"}
    assert all(entry["reason"] for entry in snapshot["missing"])
    assert snapshot["installed"] == 2

    metrics = layer_metrics(snapshot)
    assert metrics["test.outer.calls"] == 1
    assert metrics["test.outer.items"] == 2
    assert metrics["test.inner.step_calls"] == 2
    assert metrics["test.inner.step_items"] == 2
    inner_total = metrics["test.inner.step_total_s"]
    outer_total = metrics["test.outer.total_s"]
    outer_self = metrics["test.outer.busy_s"]
    assert 0.04 <= inner_total <= outer_total
    # busy_s is self time: the two sleeps inside Inner are not Outer's.
    assert abs(outer_self - (outer_total - inner_total)) < 1e-6
    assert 0.01 <= outer_self < 0.04

    # The raw spans tell the same story as the aggregates.
    own = self_times(sorted(tracer.spans))
    root = next(s for s in tracer.spans if s[1].endswith("Outer.run"))
    children = [s for s in tracer.spans if s[4] == root[0]]
    assert len(children) == 2 and all(s[5] == root[5] for s in children)
    assert abs(own[root[0]] - outer_self) < 1e-6


def test_contract_limits() -> None:
    path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    contract = json.loads(path.read_text(encoding="utf-8"))
    assert path.stat().st_size <= 64 * 1024
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(name.match(n) for n in names)
    assert 2 <= len(contract["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in contract["workloads"])
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert unit.match(metric["unit"]) and metric["better"] in (
            "lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in contract["end_to_end"])
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 18) <= 3420, "over the time cap"


def main() -> int:
    tests = [value for key, value in sorted(globals().items())
             if key.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
