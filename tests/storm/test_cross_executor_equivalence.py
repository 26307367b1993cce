"""Cross-executor equivalence: Local == Threaded.

The substrate's contract is that both executors honour identical
grouping semantics.  A purpose-built topology makes the contract exact —
every piece of state is owned by one fields-grouped key (single writer
per key), so top-N output, acked-tuple counts, and counter totals are
fully deterministic under thread interleaving.

Two proofs:

* clean run (seeded 10k-action stream) — byte-identical top-N,
  per-component processed counts, and ``counter_totals()`` across both
  executors;
* arena SGD — bolt workers on different *threads* write factor vectors
  into one :class:`MFModel`; the learned vectors and predictions must be
  byte-identical to the single-threaded run.
"""

import random

import numpy as np
import pytest

from repro.config import MFConfig
from repro.core import MFModel
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

N_ACTIONS = 10_000
N_KEYS = 23
TOP_N = 5
STREAM_SEED = 2016


class _SeededActionSpout(Spout):
    """Deterministic pseudo-random action stream, identical per seed."""

    def __init__(self) -> None:
        self._rng = random.Random(STREAM_SEED)
        self._i = 0

    def next_tuple(self) -> StreamTuple | None:
        if self._i >= N_ACTIONS:
            return None
        self._i += 1
        return StreamTuple(
            {
                "k": self._rng.randrange(N_KEYS),
                "v": self._rng.randrange(1000),
            }
        )


class _AggregateBolt(Bolt):
    """Per-key running sum; fields grouping gives one writer per key.

    Each worker publishes its (instance-private) state dict into the
    ``states`` dict the factory closes over, keyed by worker index.
    """

    def __init__(self, registry, states: dict[int, dict[int, int]]) -> None:
        self._sums: dict[int, int] = {}
        self._states = states
        self._acked = registry.counter(
            "equiv_acked_total", "tuples acked by the aggregate stage"
        )

    def prepare(self, ctx) -> None:
        self._states[ctx.worker_index] = self._sums

    def process(self, tup, collector):
        k = tup["k"]
        self._sums[k] = self._sums.get(k, 0) + tup["v"]
        self._acked.inc()
        collector.emit({"k": k, "sum": self._sums[k]})


class _RankBolt(Bolt):
    """Latest sum per key; per-key FIFO makes 'latest' well-defined."""

    def __init__(self, states: dict[int, dict[int, int]]) -> None:
        self._latest: dict[int, int] = {}
        self._states = states

    def prepare(self, ctx) -> None:
        self._states[ctx.worker_index] = self._latest

    def process(self, tup, collector):
        self._latest[tup["k"]] = tup["sum"]


def _merged_state(states: dict[int, dict[int, int]]) -> dict[int, int]:
    merged: dict[int, int] = {}
    for state in states.values():
        merged.update(state)
    return merged


def _run(executor_cls):
    obs = Observability.create()
    aggregate_states: dict[int, dict[int, int]] = {}
    rank_states: dict[int, dict[int, int]] = {}
    builder = TopologyBuilder()
    builder.set_spout("spout", _SeededActionSpout)
    builder.set_bolt(
        "aggregate",
        lambda: _AggregateBolt(obs.registry, aggregate_states),
        parallelism=3,
    ).fields_grouping("spout", ["k"])
    builder.set_bolt(
        "rank", lambda: _RankBolt(rank_states), parallelism=2
    ).fields_grouping("aggregate", ["k"])
    executor = executor_cls(builder.build(), obs=obs)
    if executor_cls is LocalExecutor:
        metrics = executor.run()
    else:
        metrics = executor.run(timeout=120)

    latest = _merged_state(rank_states)
    top_n = sorted(latest.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_N]
    return {
        "top_n": top_n,
        "sums": _merged_state(aggregate_states),
        "totals": counter_totals(obs.registry),
        "snapshot": metrics.snapshot(),
    }


def _expected_sums() -> dict[int, int]:
    rng = random.Random(STREAM_SEED)
    sums: dict[int, int] = {}
    for _ in range(N_ACTIONS):
        k, v = rng.randrange(N_KEYS), rng.randrange(1000)
        sums[k] = sums.get(k, 0) + v
    return sums


class TestCleanStream:
    @pytest.fixture(scope="class")
    def runs(self):
        return {
            cls.__name__: _run(cls)
            for cls in (LocalExecutor, ThreadedExecutor)
        }

    def test_top_n_identical(self, runs):
        local, threaded = runs.values()
        assert local["top_n"] == threaded["top_n"]
        expected = _expected_sums()
        assert local["top_n"] == sorted(
            expected.items(), key=lambda kv: (-kv[1], kv[0])
        )[:TOP_N]

    def test_aggregate_state_identical(self, runs):
        local, threaded = runs.values()
        assert local["sums"] == threaded["sums"]
        assert local["sums"] == _expected_sums()

    def test_acked_counts_identical(self, runs):
        for run in runs.values():
            snap = run["snapshot"]
            assert snap["aggregate"]["processed"] == N_ACTIONS
            assert snap["rank"]["processed"] == N_ACTIONS
            assert snap["aggregate"]["failed"] == 0
            assert run["totals"]["equiv_acked_total"] == N_ACTIONS

    def test_counter_totals_identical(self, runs):
        local, threaded = runs.values()
        assert local["totals"] == threaded["totals"]
        # Pin absolutes so equality can't pass vacuously.
        assert (
            local["totals"]["storm_tuples_processed_total{component=aggregate}"]
            == N_ACTIONS
        )


# --------------------------------------------------------------------------
# Arena SGD: real model updates from parallel bolt workers.
# --------------------------------------------------------------------------

SGD_F = 8
SGD_GROUPS = 4
SGD_USERS_PER_GROUP = 10
SGD_STEPS = 800


class _SgdSpout(Spout):
    """Seeded (group, user, video, rating) actions; groups are disjoint
    entity universes so fields grouping by ``g`` preserves the
    single-writer-per-key invariant for users *and* videos."""

    def __init__(self) -> None:
        self._rng = random.Random(7)
        self._i = 0

    def next_tuple(self) -> StreamTuple | None:
        if self._i >= SGD_STEPS:
            return None
        self._i += 1
        g = self._rng.randrange(SGD_GROUPS)
        return StreamTuple(
            {
                "g": g,
                "u": f"g{g}-u{self._rng.randrange(SGD_USERS_PER_GROUP)}",
                "v": f"g{g}-v{self._rng.randrange(20)}",
                "r": float(self._rng.randrange(2)),
            }
        )


class _SgdBolt(Bolt):
    def __init__(self, model: MFModel) -> None:
        self._model = model

    def process(self, tup, collector):
        self._model.sgd_step(tup["u"], tup["v"], tup["r"], eta=0.05)


def _run_sgd(executor_cls):
    model = MFModel(MFConfig(f=SGD_F, seed=11))
    # Seed mu = 0.5 up front and never fold it mid-stream (the bolts call
    # ``sgd_step`` only): the global mean is the one piece of cross-group
    # shared state, so updating it would make results depend on
    # inter-group ordering.
    model.observe_rating(0.0)
    model.observe_rating(1.0)
    builder = TopologyBuilder()
    builder.set_spout("spout", _SgdSpout)
    builder.set_bolt(
        "sgd", lambda: _SgdBolt(model), parallelism=SGD_GROUPS
    ).fields_grouping("spout", ["g"])
    executor = executor_cls(builder.build())
    if executor_cls is LocalExecutor:
        executor.run()
    else:
        executor.run(timeout=120)

    users = [
        f"g{g}-u{i}"
        for g in range(SGD_GROUPS)
        for i in range(SGD_USERS_PER_GROUP)
    ]
    videos = sorted(model.video_rows()[0])
    vectors = {u: model.user_vector(u) for u in users if model.user_vector(u) is not None}
    predictions = {u: model.predict_many(u, videos[:10]) for u in users[:5]}
    return vectors, predictions


class TestArenaSgd:
    def test_threaded_sgd_matches_local_bytewise(self):
        local_vecs, local_preds = _run_sgd(LocalExecutor)
        threaded_vecs, threaded_preds = _run_sgd(ThreadedExecutor)
        assert local_vecs and sorted(local_vecs) == sorted(threaded_vecs)
        for u in local_vecs:
            assert np.array_equal(local_vecs[u], threaded_vecs[u]), u
        for u in local_preds:
            assert np.array_equal(local_preds[u], threaded_preds[u]), u
