"""The observability acceptance path, end to end, under both executors.

One ``Observability`` bundle threads through the whole system: a synthetic
action stream drives the paper's Figure-2 topology (training the model),
then 100 requests are routed through a serving recommender over the same
model state.  Afterwards the bundle must hold

* one ``to_json()`` registry document covering every subsystem's metrics;
* at least one complete trace covering router → recommender → candidate
  selection and Eq. 2 scoring, and no spans from the topology, which
  reports through the registry only.
"""

import json

import pytest

from repro.clock import VirtualClock
from repro.obs import Observability
from repro.serving import RecRequest, RequestRouter
from repro.storm import LocalExecutor, ThreadedExecutor
from repro.topology import build_recommendation_topology

N_REQUESTS = 100


def _run_system(small_world, small_split, executor_cls, obs):
    topology, system = build_recommendation_topology(
        list(small_split.train),
        small_world.videos,
        users=small_world.users,
        clock=VirtualClock(0.0),
        obs=obs,
    )
    executor = executor_cls(topology, obs=obs)
    if executor_cls is ThreadedExecutor:
        executor.run(timeout=120.0)
    else:
        executor.run()

    recommender = system.serving_recommender()
    router = RequestRouter(recommender, obs=obs)
    now = max(a.timestamp for a in small_split.train) + 1
    users = [u for u in small_world.users if recommender.history.recent(u)]
    assert users, "the topology run must have populated user histories"
    for i in range(N_REQUESTS):
        response = router.handle(
            RecRequest(user_id=users[i % len(users)], n=10, timestamp=now)
        )
        assert not response.shed
    return system


@pytest.mark.parametrize(
    "executor_cls", [LocalExecutor, ThreadedExecutor], ids=["local", "threaded"]
)
def test_end_to_end_observability(small_world, small_split, executor_cls):
    obs = Observability.create(sample_every=10)
    _run_system(small_world, small_split, executor_cls, obs)

    # -- one registry document covering every layer ------------------------
    document = json.loads(obs.registry.to_json())
    assert document["schema_version"] == 1
    metrics = document["metrics"]
    for family in (
        "storm_tuples_processed_total",
        "storm_process_latency_seconds",
        "trainer_actions_total",
        "recommender_request_latency_seconds",
        "serving_requests_total",
        "serving_request_latency_seconds",
    ):
        assert family in metrics, f"missing metric family {family}"

    served = sum(
        series["value"]
        for series in metrics["serving_requests_total"]["series"]
    )
    assert served == N_REQUESTS

    # -- traces: nothing left open, and both acceptance shapes present -----
    assert obs.tracer.active_span_count() == 0
    traces = obs.tracer.complete_traces().values()
    assert traces

    serving_shape = {
        "router.handle",
        "recommender.recommend",
        "candidates.select",
        "mf.predict",
    }
    serving_traces = [
        spans for spans in traces if serving_shape <= {s.name for s in spans}
    ]
    assert serving_traces, (
        "no complete trace covers router -> recommender -> its stages"
    )

    # Per-stage attribution is available over the whole run.
    stages = obs.tracer.stage_latencies()
    for stage in sorted(serving_shape):
        assert stages[stage]["count"] > 0
    assert not [n for n in stages if n.startswith(("spout:", "bolt:"))]

    # The causal chain hangs together inside one serving trace: the
    # recommender span is a child of the router span.
    spans = serving_traces[0]
    by_id = {s.span_id: s for s in spans}
    rec = next(s for s in spans if s.name == "recommender.recommend")
    chain = set()
    cursor = rec
    while cursor.parent_id is not None:
        cursor = by_id[cursor.parent_id]
        chain.add(cursor.name)
    assert "router.handle" in chain
