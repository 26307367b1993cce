"""What observability costs the online trainer: ``observe_stream`` off vs on.

Every served process runs with an ``Observability`` bundle.  This
benchmark trains the ``train_stream`` world
(120 users x 200 videos, seed 2016, days 0-5: 37,036 actions; 40 x 80 at
smoke scale) with ``RealtimeRecommender.observe_stream``, alternating
runs without ``obs`` and with ``Observability.create()``, and

* asserts the count guards, which hold on any host: one more observed
  run, under a counter, resolves each labelled child through ``labels()``
  once and observes no histogram; every observed run exports the same
  counters; with no trace active the tracer records no span; and state
  operations per action — fetches of a ``ModelState`` value by a
  component, counted by ``tests/support/state.py::CountingState`` — stay
  at most ``MAX_STATE_OPS_PER_ACTION`` (per action a ``mu`` fold; per SGD
  step a ``mu`` read and one read and one write of each factor arena; per
  engagement a history read and push, one arena read and one insert into
  the similar lists, and a hot-table record for the user's group and for
  the global one: 6.41, and 6.19 at smoke scale, the key-value store's op
  counts one for one; ``tests/obs/test_ingest_work_counts.py`` holds the
  tier-1 twin of the bound);
* reports actions/s for every run, the median per-pair observed /
  unobserved ratio and state operations per action.  Timings are reported, not
  asserted: on a shared host no rate holds still.

Emits ``BENCH_obs_overhead.json``.
"""

import statistics
import time

from repro.core import RealtimeRecommender
from repro.data import split_by_day
from repro.obs import Observability
from tests.support.obs import count_instrument_calls, counter_totals
from tests.support.state import CountingState

from _emit import bench_smoke, emit_bench
from _helpers import build_world, format_rows, report, smoke_scaled

N_USERS = smoke_scaled(120, 40)
N_VIDEOS = smoke_scaled(200, 80)
PAIRS = 2 if bench_smoke() else 5
MAX_STATE_OPS_PER_ACTION = 6.5


def _train(world, actions, obs, state=None):
    recommender = RealtimeRecommender(
        world.videos, users=world.users, obs=obs, state=state
    )
    started = time.perf_counter()
    recommender.observe_stream(actions)
    return time.perf_counter() - started


def test_observed_trainer_overhead():
    world = build_world(n_users=N_USERS, n_videos=N_VIDEOS)
    actions = split_by_day(world.generate_actions(), train_days=6).train

    rows, totals = [], []
    for pair in range(PAIRS):
        seconds = {}
        # Alternate which side runs first, so drift favours neither.
        for observed in (False, True) if pair % 2 == 0 else (True, False):
            obs = Observability.create() if observed else None
            seconds[observed] = _train(world, actions, obs)
            if observed:
                totals.append(counter_totals(obs.registry))
                assert obs.tracer.finished_spans() == []
        rows.append(
            {
                "pair": pair,
                "unobserved_aps": round(len(actions) / seconds[False], 1),
                "observed_aps": round(len(actions) / seconds[True], 1),
                "ratio": round(seconds[False] / seconds[True], 3),
            }
        )
    assert all(t == totals[0] for t in totals), "observed runs disagree"

    obs = Observability.create()
    with count_instrument_calls() as calls:
        _train(world, actions, obs)
    assert calls.labels and max(calls.labels.values()) == 1, calls.labels
    assert calls.observed == 0
    assert counter_totals(obs.registry) == totals[0]

    state = CountingState()
    _train(world, actions, Observability.create(), state)
    state_ops = state.total()
    assert state_ops / len(actions) <= MAX_STATE_OPS_PER_ACTION, state_ops
    report("obs_overhead", format_rows(rows))
    emit_bench(
        "obs_overhead",
        metrics={
            **{
                f"{side}_aps_pair{row['pair']}": row[f"{side}_aps"]
                for row in rows
                for side in ("unobserved", "observed")
            },
            "unobserved_aps_median": statistics.median(
                r["unobserved_aps"] for r in rows
            ),
            "observed_aps_median": statistics.median(
                r["observed_aps"] for r in rows
            ),
            "observed_over_unobserved_median": statistics.median(
                r["ratio"] for r in rows
            ),
            "state_ops_per_action": round(state_ops / len(actions), 3),
            "labels_calls_per_action": round(
                sum(calls.labels.values()) / len(actions), 6
            ),
            "histogram_observes": calls.observed,
        },
        params={
            "n_users": N_USERS,
            "n_videos": N_VIDEOS,
            "actions": len(actions),
            "pairs": PAIRS,
        },
    )
