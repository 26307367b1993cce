"""Work counts of the ingest path, lowered and never raised.

``RealtimeRecommender.observe`` does one engagement's arithmetic once:
each scored pair gets one Eq. 12 eviction key, shared by its two
directed list entries, each SGD step reads and writes each factor arena
once, and no action's type is hashed.  These tests count that work on
seeded streams, so they hold on any host.
"""

from repro.baselines import AssociationRuleRecommender, SimHashCFRecommender
from repro.core import RealtimeRecommender, simtable
from repro.data import ActionType, SyntheticWorld, split_by_day
from repro.data.synthetic import paper_world_config
from repro.obs import Observability
from tests.support.state import CountingState

#: State operations per observed action on the 40 x 80 world's training
#: days: the tier-1 twin of
#: ``benchmarks/test_obs_overhead.py::MAX_STATE_OPS_PER_ACTION`` (6.19
#: measured here, 6.41 on the benchmark's 120 x 200 world).  A state
#: operation is one fetch of a ``ModelState`` value by a component
#: (``tests/support/state.py``).
MAX_STATE_OPS_PER_ACTION = 6.5
#: The exact fetches of that run, by value: per action one ``mu`` fold;
#: per SGD step a ``mu`` read and a read and a write of each arena; per
#: engagement a history read (the pairing partners) and push, a video
#: arena read and a list insert when there are partners, and a hot-table
#: record per group.  81,419 in all — the KV operations the key-value
#: store counted on the same run, one for one.
RECORDED_STATE_OPS = {
    "mu": 19534,
    "users": 12774,
    "videos": 19081,
    "histories": 12774,
    "hot": 10949,
    "lists": 6307,
}


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


def _training_days():
    world = SyntheticWorld(
        paper_world_config(seed=2016, n_users=40, n_videos=80)
    )
    return world, split_by_day(world.generate_actions(), train_days=6).train


def test_state_ops_per_action_within_bound():
    world, actions = _training_days()
    state = CountingState()
    recommender = RealtimeRecommender(
        world.videos, users=world.users, state=state, obs=Observability.create()
    )
    state.reset()
    recommender.observe_stream(actions)
    assert dict(state.ops) == RECORDED_STATE_OPS
    assert state.total() / len(actions) <= MAX_STATE_OPS_PER_ACTION


def test_no_action_type_is_hashed_per_observed_action(monkeypatch):
    """The weigher's fixed-weight table is keyed by the member's string
    value and engagement is an identity test, so ``observe`` — the
    recommender's and the SimHash and association baselines' — runs no
    Python-level ``Enum.__hash__``."""
    world, actions = _training_days()
    recommender = RealtimeRecommender(world.videos, users=world.users)
    hashes = 0
    enum_hash = ActionType.__hash__

    def counting_hash(member):
        nonlocal hashes
        hashes += 1
        return enum_hash(member)

    monkeypatch.setattr(ActionType, "__hash__", counting_hash)
    assert hash(ActionType.PLAY) and hashes == 1  # the counter counts
    hashes = 0
    recommender.observe_stream(actions)
    assert hashes == 0
    for baseline in (SimHashCFRecommender(), AssociationRuleRecommender()):
        for action in actions:
            baseline.observe(action)
    assert hashes == 0
