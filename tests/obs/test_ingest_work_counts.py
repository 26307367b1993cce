"""Work counts of the ingest path, lowered and never raised.

``RealtimeRecommender.observe`` does one engagement's arithmetic once:
each scored pair gets one Eq. 12 eviction key, shared by its two
directed list entries, and each SGD step reads and writes each factor
arena once.  These tests count that work on seeded streams, so they hold
on any host.
"""

from repro.core import RealtimeRecommender, simtable
from repro.data import SyntheticWorld, split_by_day
from repro.data.synthetic import paper_world_config
from repro.obs import Observability
from tests.support.obs import counter_totals

#: KV ops per observed action on the 40 x 80 world's training days: the
#: tier-1 twin of ``benchmarks/test_obs_overhead.py::MAX_KV_OPS_PER_ACTION``
#: (6.19 measured here, 6.41 on the benchmark's 120 x 200 world).
MAX_KV_OPS_PER_ACTION = 6.5


def test_one_eviction_key_per_scored_pair(
    monkeypatch, small_world, small_actions
):
    calls = 0
    key = simtable._eviction_key

    def counting_key(raw, timestamp, xi):
        nonlocal calls
        calls += 1
        return key(raw, timestamp, xi)

    monkeypatch.setattr(simtable, "_eviction_key", counting_key)
    recommender = RealtimeRecommender(
        small_world.videos, users=small_world.users
    )
    offer_pair = recommender.table.offer_pair
    scored = 0

    def counting_offer(video_id, partners, now=None):
        nonlocal scored
        scores = offer_pair(video_id, partners, now=now)
        scored += sum(score is not None for score in scores)
        return scores

    monkeypatch.setattr(recommender.table, "offer_pair", counting_offer)
    recommender.observe_stream(small_actions)
    assert scored > 1000
    assert calls == scored


def test_kv_ops_per_action_within_bound():
    world = SyntheticWorld(
        paper_world_config(seed=2016, n_users=40, n_videos=80)
    )
    actions = split_by_day(world.generate_actions(), train_days=6).train
    obs = Observability.create()
    recommender = RealtimeRecommender(world.videos, users=world.users, obs=obs)
    recommender.observe_stream(actions)
    kv_ops = sum(
        value
        for key, value in counter_totals(obs.registry).items()
        if key.startswith("kvstore_ops_total")
    )
    assert kv_ops / len(actions) <= MAX_KV_OPS_PER_ACTION, kv_ops
