"""Byte-identity goldens of the similar-video lists.

The digests below were captured from the per-key list layout (one store
entry per video, before the lists became one ``simtable`` entry) and
must not move under a change of the lists' storage: the raw Eq. 12
relevance and the timestamp of every stored entry, and the damped lists
``neighbors_many`` serves, stay the same bit for bit.

Worlds are the seed-2016 ``paper_world_config`` ones the end-to-end
benchmark boots: 20 x 150 on its whole stream (``build_demo_gateway``'s
training pass) and 120 x 200 on days 0-5 (``train_stream``).  A golden
that moves means the lists changed; never re-capture one to make it
pass.
"""

import hashlib

import pytest

from repro.clock import VirtualClock
from repro.core import RealtimeRecommender
from repro.data import SyntheticWorld, split_by_day
from repro.data.synthetic import paper_world_config
from tests.support.world import raw_entries

#: ``(n_users, n_videos) -> (list digest, neighbors_many digest)``.
GOLDEN = {
    (20, 150): (
        "5d77bb1a408760c06fbbd16f656ac65937dedd4ce06de34da733e8e836c1b5d2",
        "a8c9d955f83b8c26bf4e3ba46fe627f9660c29a40e481e680bb6cdd834e58dc4",
    ),
    (120, 200): (
        "43b9f6a1b65c7b5cdb3c8da12db74067fa79a1651c149289f454fb246adf382b",
        "7b1340611cf3d860f57f364e0c9c6c35abd24d9362dc63495f485cfe67e22ddd",
    ),
}

#: Seconds past the last action at which the served lists are read.
READ_AFTER = 3600.0


def _trained(n_users, n_videos):
    world = SyntheticWorld(
        paper_world_config(seed=2016, n_users=n_users, n_videos=n_videos)
    )
    actions = world.generate_actions()
    if n_users == 120:
        actions = split_by_day(actions, train_days=6).train
    recommender = RealtimeRecommender(
        world.videos,
        users=world.users,
        clock=VirtualClock(0.0),
        enable_demographic=False,
    )
    recommender.observe_stream(actions)
    return world, recommender, actions[-1].timestamp + READ_AFTER


def _list_digest(table):
    h = hashlib.sha256()
    for video in sorted(table.tracked_videos()):
        for other, (raw, t) in sorted(raw_entries(table, video).items()):
            h.update(f"{video}\t{other}\t{raw!r}\t{t!r}\n".encode())
    return h.hexdigest()


def _served_digest(world, table, now):
    videos = sorted(world.videos)
    h = hashlib.sha256()
    for video, ranked in zip(videos, table.neighbors_many(videos, now=now)):
        for other, sim in ranked:
            h.update(f"{video}\t{other}\t{sim!r}\n".encode())
    return h.hexdigest()


@pytest.fixture(scope="module", params=sorted(GOLDEN), ids=lambda s: "%dx%d" % s)
def trained(request):
    return request.param, *_trained(*request.param)


def test_stored_lists_equal_recorded(trained):
    shape, _, recommender, _ = trained
    assert _list_digest(recommender.table) == GOLDEN[shape][0]


def test_served_lists_equal_recorded(trained):
    shape, world, recommender, now = trained
    assert _served_digest(world, recommender.table, now) == GOLDEN[shape][1]
