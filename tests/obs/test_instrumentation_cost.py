"""Work-count guards on the observed trainer's instrumentation.

These tests bound the per-event cost of observability by counting
operations, not by timing them, so they hold on any host: a seeded
2,000-action stream (plus 20 reads) resolves each labelled child once,
times nothing, and exports exactly the series it did when every event did
two ``labels()`` lookups and a histogram observation.
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
#: implementation that looked both children up per event and timed each
#: one.  The ``kvstore_ops_total`` series left with the key-value store;
#: ``tests/obs/test_ingest_work_counts.py`` counts state operations.
RECORDED_TOTALS = {
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


def test_an_active_span_traces_each_stage_once(small_world, small_actions):
    """Under an active span the trainer opens one span per processed
    action and a read one per stage it runs, all in the active trace."""
    obs = deterministic_obs()
    recommender = RealtimeRecommender(
        small_world.videos, users=small_world.users, obs=obs
    )
    actions = small_actions[:300]
    with obs.tracer.span("batch") as root:
        recommender.observe_stream(actions)
        _reads(recommender, small_world, actions[-1].timestamp)
    spans = obs.tracer.finished_spans()
    assert all(s.trace_id == root.trace_id for s in spans)
    names = Counter(s.name for s in spans)
    assert names["trainer.process"] == len(actions)
    assert names["recommender.recommend"] == names["candidates.select"] == N_READS
    assert set(names) <= {
        "batch",
        "trainer.process",
        "recommender.recommend",
        "candidates.select",
        "mf.predict",
    }
