"""The Figure-2 topology learns exactly what the production path learns.

``RealtimeRecommender.observe_stream`` is the path the served system
trains on; the topology is the executable specification of the same
Algorithm 1 split across ComputeMF (``(r, w)``, Eq. 8, the SGD step) and
MFStorage (the single writer of each key).  Under the deterministic
``LocalExecutor`` the pipeline drains between source tuples, so every
ComputeMF step reads the parameters the previous action's MFStorage
writes left behind — and the learned state must be byte-identical to the
sequential trainer's, for every model variant.  The same holds for the
similar-video tables: ``observe`` scores each engagement's partners in
one batched ``offer_pair`` while the topology scores pair by pair
(ItemPairSim) and stores direction by direction (ResultStorage), and
every list must come out equal, raw score and timestamp included.

Under the ``ThreadedExecutor`` the ComputeMF and ItemPairSim workers race
on the factors, so the scores differ from run to run; what must still
hold is that the ResultStorage workers, which update the one store entry
holding every list concurrently, each the rows of its own videos, lose
nothing: the lists equal a row-by-row replay of what each worker stored.
"""

import threading

import pytest

from repro.clock import VirtualClock
from repro.core import RealtimeRecommender, SimilarVideoTable
from repro.core.variants import ALL_VARIANTS
from repro.data import SyntheticWorld, WorldConfig
from repro.storm import LocalExecutor, ThreadedExecutor
from repro.topology import RESULT_STORAGE, build_recommendation_topology
from tests.support.world import raw_entries

N_ACTIONS = 1_500


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld(WorldConfig(n_users=40, n_videos=60, seed=3))


@pytest.fixture(scope="module")
def actions(world):
    stream = world.generate_actions()[:N_ACTIONS]
    assert len(stream) == N_ACTIONS
    return stream


def _rows(model):
    ids, vectors, biases = model.video_rows()
    return ids, vectors.tobytes(), biases.tobytes()


@pytest.fixture(scope="module", params=ALL_VARIANTS, ids=lambda v: v.name)
def trained(request, world, actions):
    """``(production, system)`` after the same stream, one variant."""
    variant = request.param
    production = RealtimeRecommender(
        world.videos,
        users=world.users,
        variant=variant,
        clock=VirtualClock(0.0),
        enable_demographic=False,
    )
    production.observe_stream(actions)

    topology, system = build_recommendation_topology(
        list(actions),
        world.videos,
        users=world.users,
        variant=variant,
        clock=VirtualClock(0.0),
    )
    LocalExecutor(topology).run()
    return production, system


def test_topology_learns_byte_identical_parameters(world, trained):
    production, system = trained
    expected, learned = production.model, system.model
    assert learned.mu == expected.mu
    assert learned.n_videos == expected.n_videos > 0
    assert _rows(learned) == _rows(expected)
    assert learned.n_users == expected.n_users > 0
    for user_id in sorted(world.users):
        want = expected.user_vector(user_id)
        got = learned.user_vector(user_id)
        assert (got is None) == (want is None), user_id
        if want is not None:
            assert got.tobytes() == want.tobytes(), user_id
        assert learned.user_bias(user_id) == expected.user_bias(user_id)


def test_topology_builds_identical_similar_lists(trained):
    production, system = trained
    tracked = sorted(production.table.tracked_videos())
    assert tracked and sorted(system.table.tracked_videos()) == tracked
    for video_id in tracked:
        expected = raw_entries(production.table, video_id)
        learned = raw_entries(system.table, video_id)
        assert repr(sorted(learned.items())) == repr(
            sorted(expected.items())
        ), video_id


def test_threaded_topology_builds_identical_similar_lists(world, actions):
    topology, system = build_recommendation_topology(
        list(actions),
        world.videos,
        users=world.users,
        clock=VirtualClock(0.0),
        parallelism={RESULT_STORAGE: 3},
    )
    stored: dict[str, list[tuple[str, float, float]]] = {}
    writers: dict[str, set[int]] = {}
    insert = system.table.insert_scored

    def recording_insert(video_id, other_id, raw, timestamp):
        writers.setdefault(video_id, set()).add(threading.get_ident())
        stored.setdefault(video_id, []).append((other_id, raw, timestamp))
        insert(video_id, other_id, raw, timestamp)

    system.table.insert_scored = recording_insert
    ThreadedExecutor(topology).run(timeout=120.0)
    assert all(len(threads) == 1 for threads in writers.values())
    assert len(set().union(*writers.values())) == 3

    replay = SimilarVideoTable(
        world.videos, system.model, config=system.table.config
    )
    for video_id, entries in stored.items():
        for other_id, raw, timestamp in entries:
            replay.insert_scored(video_id, other_id, raw, timestamp)
    tracked = sorted(replay.tracked_videos())
    assert tracked and sorted(system.table.tracked_videos()) == tracked
    for video_id in tracked:
        expected = raw_entries(replay, video_id)
        learned = raw_entries(system.table, video_id)
        assert repr(sorted(learned.items())) == repr(
            sorted(expected.items())
        ), video_id


def test_compute_mf_uses_the_systems_trainer(world):
    topology, system = build_recommendation_topology(
        [], world.videos, clock=VirtualClock(0.0)
    )
    bolt = topology.components["compute_mf"].factory()
    assert bolt.trainer is system.trainer
    assert system.serving_recommender().trainer is system.trainer
    assert system.serving_recommender().demographic is None
