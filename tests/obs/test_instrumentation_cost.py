"""Work-count guards on the observed trainer's instrumentation.

The recommender makes about 6.4 KV ops per action, and every one of them
runs through :class:`~repro.obs.InstrumentedKVStore`.  These tests bound that
per-event cost by counting operations, not by timing them, so they hold on
any host: a seeded 2,000-action stream (plus 20 reads, for the batch
counters) resolves each labelled child once, times nothing, and still
exports exactly the series and spans it did when every op did two
``labels()`` lookups and a histogram observation.
"""

from collections import Counter

import pytest

from repro.core import RealtimeRecommender
from tests.support.obs import (
    count_instrument_calls,
    counter_totals,
    deterministic_obs,
)

N_ACTIONS = 2000
N_READS = 20

#: Counter totals of the stream and the reads, recorded from the
#: implementation that looked both children up per op and timed each op;
#: get/update re-recorded when ``offer_pair`` took an engagement's partners
#: in one step (one arena read, one list update per partner plus one), and
#: again when the demographic hot lists moved into the model's store (per
#: engagement an update of the user's group's list and of the global one,
#: per read a get of the group's list), and again when every similar-video
#: list became one store entry (per engagement one list update instead of
#: one per scored partner plus one, per read one get instead of an mget),
#: and again when the SGD step stopped writing a new entity's initial
#: vector before its update (per SGD step one update of each arena instead
#: of two: 9027 - 2 x 922 updates).
RECORDED_TOTALS = {
    "kvstore_ops_total{op=get}": 4605.0,
    "kvstore_ops_total{op=update}": 7183.0,
    "trainer_actions_total{result=skipped_zero}": 1078.0,
    "trainer_actions_total{result=updated}": 922.0,
}


def _reads(recommender, world, now):
    for user_id in sorted(world.users)[:N_READS]:
        recommender.recommend_ids(user_id, n=10, now=now)


@pytest.fixture(scope="module")
def observed_run(small_world, small_actions):
    obs = deterministic_obs()
    recommender = RealtimeRecommender(
        small_world.videos, users=small_world.users, obs=obs
    )
    actions = small_actions[:N_ACTIONS]
    with count_instrument_calls() as stream_calls:
        recommender.observe_stream(actions)
    with count_instrument_calls() as read_calls:
        _reads(recommender, small_world, actions[-1].timestamp)
    return obs, stream_calls, read_calls


def test_each_labelled_child_resolved_once(observed_run):
    _, stream_calls, read_calls = observed_run
    per_series = stream_calls.labels + read_calls.labels
    assert per_series and max(per_series.values()) == 1, per_series


def test_stream_observes_no_histogram(observed_run):
    _, stream_calls, _ = observed_run
    assert stream_calls.observed == 0


def test_counter_totals_equal_recorded(observed_run):
    obs, _, _ = observed_run
    assert counter_totals(obs.registry) == RECORDED_TOTALS


def test_no_active_span_starts_no_span(observed_run):
    obs, _, _ = observed_run
    assert obs.tracer.finished_spans() == []
    assert obs.tracer.active_span_count() == 0


def test_one_kv_span_per_op_under_an_active_span(small_world, small_actions):
    obs = deterministic_obs()
    recommender = RealtimeRecommender(
        small_world.videos, users=small_world.users, obs=obs
    )
    actions = small_actions[:300]
    with obs.tracer.span("batch") as root:
        recommender.observe_stream(actions)
        _reads(recommender, small_world, actions[-1].timestamp)
    kv_spans = [
        s for s in obs.tracer.finished_spans() if s.name.startswith("kv.")
    ]
    assert kv_spans and all(s.trace_id == root.trace_id for s in kv_spans)
    ops = {
        key.split("=")[1].rstrip("}"): value
        for key, value in counter_totals(obs.registry).items()
        if key.startswith("kvstore_ops_total")
    }
    assert Counter(s.name[len("kv."):] for s in kv_spans) == ops
