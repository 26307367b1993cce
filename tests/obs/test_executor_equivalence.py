"""Executor equivalence, pinned through the metrics registry.

The substrate's contract is that LocalExecutor and ThreadedExecutor honour
identical grouping semantics; observability makes that checkable in one
line: run the same stream through both and diff ``counter_totals()``.

The topology here is purpose-built so the contract is exact: every piece
of state is owned by one fields-grouped key (single writer per key), so
outputs and counts are fully deterministic under true thread interleaving.
Latency histograms legitimately differ between executors — counters may
not.
"""

import pytest

from repro.obs import Observability
from repro.storm import (
    Bolt,
    LocalExecutor,
    Spout,
    StreamTuple,
    ThreadedExecutor,
    TopologyBuilder,
)
from tests.support.obs import counter_totals

N_TUPLES = 60
N_KEYS = 7
TOP_N = 5


class _ActionSpout(Spout):
    def __init__(self) -> None:
        self._i = 0

    def next_tuple(self) -> StreamTuple | None:
        if self._i >= N_TUPLES:
            return None
        tup = StreamTuple({"k": self._i % N_KEYS, "v": self._i})
        self._i += 1
        return tup


class _AggregateBolt(Bolt):
    """Per-key running sum.  State is private to the worker instance, and
    fields grouping guarantees one worker owns each key."""

    def __init__(self, registry) -> None:
        self._sums: dict[int, int] = {}
        self._updates = registry.counter(
            "aggregate_updates_total",
            "per-key aggregate updates",
            labelnames=("key",),
        )

    def process(self, tup, collector):
        k = tup["k"]
        self._sums[k] = self._sums.get(k, 0) + tup["v"]
        self._updates.labels(key=str(k)).inc()
        collector.emit({"k": k, "sum": self._sums[k]})


class _RankBolt(Bolt):
    """Records the latest sum per key.  Fields grouping by ``k`` gives one
    writer per key, and per-key FIFO delivery makes 'latest' well-defined
    under both executors."""

    def __init__(self, results: dict) -> None:
        self._results = results

    def process(self, tup, collector):
        self._results[tup["k"]] = tup["sum"]


def _run(executor_cls):
    obs = Observability.create()
    results: dict[int, int] = {}
    builder = TopologyBuilder()
    builder.set_spout("spout", _ActionSpout)
    builder.set_bolt(
        "aggregate", lambda: _AggregateBolt(obs.registry), parallelism=3
    ).fields_grouping("spout", ["k"])
    builder.set_bolt(
        "rank", lambda: _RankBolt(results), parallelism=2
    ).fields_grouping("aggregate", ["k"])
    topology = builder.build()

    executor = executor_cls(topology, obs=obs)
    if executor_cls is ThreadedExecutor:
        executor.run(timeout=60.0)
    else:
        executor.run()

    top_n = sorted(results.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_N]
    return top_n, obs


def _expected_sums():
    sums: dict[int, int] = {}
    for i in range(N_TUPLES):
        sums[i % N_KEYS] = sums.get(i % N_KEYS, 0) + i
    return sums


def test_same_input_same_output_same_counters():
    local_top, local_obs = _run(LocalExecutor)
    threaded_top, threaded_obs = _run(ThreadedExecutor)

    # Identical ranked output...
    assert local_top == threaded_top
    expected = _expected_sums()
    assert local_top == sorted(
        expected.items(), key=lambda kv: (-kv[1], kv[0])
    )[:TOP_N]

    # ...and identical counter totals, storm-level and application-level.
    local_totals = counter_totals(local_obs.registry)
    threaded_totals = counter_totals(threaded_obs.registry)
    assert local_totals == threaded_totals

    # Sanity-pin the absolute numbers so the diff can't pass vacuously.
    assert local_totals["storm_tuples_processed_total{component=aggregate}"] == N_TUPLES
    assert local_totals["storm_tuples_processed_total{component=rank}"] == N_TUPLES
    assert local_totals["storm_tuples_shed_total{component=aggregate}"] == 0
    for k, count in [(k, N_TUPLES // N_KEYS + (1 if k < N_TUPLES % N_KEYS else 0)) for k in range(N_KEYS)]:
        assert local_totals[f"aggregate_updates_total{{key={k}}}"] == count


@pytest.mark.parametrize(
    "executor_cls", [LocalExecutor, ThreadedExecutor], ids=["local", "threaded"]
)
def test_counters_stable_across_repeated_runs(executor_cls):
    first_top, first_obs = _run(executor_cls)
    second_top, second_obs = _run(executor_cls)
    assert first_top == second_top
    assert (
        counter_totals(first_obs.registry)
        == counter_totals(second_obs.registry)
    )
