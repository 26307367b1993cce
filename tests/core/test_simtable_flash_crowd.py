"""Simtable eviction under a flash-crowd scenario.

A video going viral mid-stream floods the similar-video tables with fresh
high-engagement pairs.  Two properties must hold (§4.2, Eq. 11):

* the viral video enters the similarity list of every video it co-occurs
  with, within the time-damping window — recency beats incumbency;
* a full table evicts exactly its *weakest damped* entry (the min of the
  time-invariant eviction key), never an arbitrary or strongest one.
"""

import pytest

from repro.clock import SECONDS_PER_DAY, VirtualClock
from repro.config import MFConfig, SimilarityConfig
from repro.core import MFModel, SimilarVideoTable, pair_partners
from repro.core.simtable import _eviction_key
from repro.data import SyntheticWorld, WorldConfig
from repro.data.stream import ENGAGEMENT_ACTIONS
from repro.eval.scenarios import FlashCrowd, Scenario
from tests.support.world import raw_entries

VIRAL_DAY = 2
XI = 2.0 * SECONDS_PER_DAY  # the damping window the assertions use


@pytest.fixture(scope="module")
def flash_world():
    scenario = Scenario(
        "flash_crowd",
        (FlashCrowd(day=VIRAL_DAY, duration_days=2, boost=80.0),),
    )
    world = SyntheticWorld(
        WorldConfig(n_users=50, n_videos=40, n_types=4, days=5, seed=11),
        scenario=scenario,
    )
    return world, world.generate_actions()


def _replay_pairs(world, actions, table):
    """Feed engagement co-occurrence pairs through the table, tracking the
    full co-occurrence timeline of every video."""
    recent: dict[str, list[str]] = {}
    timeline: dict[str, list[tuple[float, str]]] = {}
    for action in actions:
        if action.action not in ENGAGEMENT_ACTIONS:
            continue
        history = recent.setdefault(action.user_id, [])
        video = action.video_id
        partners = pair_partners(video, history, limit=5)
        table.offer_pair(video, partners, now=action.timestamp)
        for b in partners:
            timeline.setdefault(video, []).append((action.timestamp, b))
            timeline.setdefault(b, []).append((action.timestamp, video))
        if action.video_id in history:
            history.remove(action.video_id)
        history.insert(0, action.video_id)
        del history[10:]
    return timeline


class TestViralVideoEntersLists:
    TABLE_SIZE = 8

    def test_viral_in_every_relevant_list_within_window(self, flash_world):
        world, actions = flash_world
        # beta=1 pins raw relevance to the type-similarity term (Eq. 10):
        # same-type pairs all score exactly 1, cross-type pairs 0 (and are
        # filtered from neighbour lists), so the damped ordering — and
        # therefore eviction — is decided by *freshness* (Eq. 11), which
        # is exactly what this test pins down.
        model = MFModel(MFConfig(f=4, init_scale=1e-4, seed=3))
        for vid in world.videos:
            model.ensure_video(vid)
        table = SimilarVideoTable(
            world.videos,
            model,
            config=SimilarityConfig(
                table_size=self.TABLE_SIZE, xi=XI, beta=1.0
            ),
            clock=VirtualClock(0.0),
        )
        timeline = _replay_pairs(world, actions, table)

        query_at = (VIRAL_DAY + 2) * SECONDS_PER_DAY  # end of the event
        viral_kind = world.videos["viral_0"].kind
        events = timeline.get("viral_0", [])
        assert len(events) >= 20, "the flash crowd produced no co-engagement"

        last_viral: dict[str, float] = {}
        for t, partner in events:
            if t <= query_at:
                last_viral[partner] = max(last_viral.get(partner, 0.0), t)

        # Relevant lists: same-type partners whose last viral co-occurrence
        # is inside the damping window, and who have NOT since co-occurred
        # with a full table's worth of fresher distinct same-type videos
        # (those may legitimately displace the viral entry — that is the
        # eviction policy working, not failing).  With beta=1 cross-type
        # pairs score 0 and never occupy a ranked slot.
        relevant = []
        for partner, t_viral in last_viral.items():
            if world.videos[partner].kind != viral_kind:
                continue
            if query_at - t_viral > XI:
                continue
            fresher = {
                other
                for t, other in timeline.get(partner, [])
                if t_viral < t <= query_at
                and other != "viral_0"
                and world.videos[other].kind == viral_kind
            }
            if len(fresher) < self.TABLE_SIZE:
                relevant.append(partner)
        assert len(relevant) >= 3, "flash crowd too weak to test anything"

        for vid in relevant:
            neighbor_ids = [
                other for other, _ in table.neighbors(vid, now=query_at)
            ]
            assert "viral_0" in neighbor_ids, (
                f"viral_0 co-occurred with {vid} within xi but is missing "
                f"from its similarity list {neighbor_ids}"
            )

    def test_viral_absent_before_event(self, flash_world):
        world, actions = flash_world
        before = VIRAL_DAY * SECONDS_PER_DAY
        assert all(
            a.video_id != "viral_0" for a in actions if a.timestamp < before
        )


class TestEvictionIsHeapWeakest:
    def _table(self, n_videos=12, table_size=4):
        from repro.data.schema import Video

        videos = {
            f"v{i}": Video(f"v{i}", "a", duration=100.0)
            for i in range(n_videos)
        }
        model = MFModel(MFConfig(f=4, init_scale=0.5, seed=9))
        for vid in videos:
            model.ensure_video(vid)
        table = SimilarVideoTable(
            videos,
            model,
            config=SimilarityConfig(table_size=table_size, xi=XI),
            clock=VirtualClock(0.0),
        )
        return table

    def test_full_table_evicts_weakest_damped_entry(self):
        table = self._table()
        xi = table.config.xi
        # Fill v0's list to capacity with distinct raw scores and ages.
        for i, (raw, t) in enumerate(
            [(0.9, 0.0), (0.5, 1000.0), (0.8, 2000.0), (0.4, 3000.0)]
        ):
            table.insert_scored("v0", f"v{i + 1}", raw, t)
        entries = raw_entries(table, "v0")
        assert len(entries) == 4
        weakest = min(
            entries, key=lambda o: _eviction_key(*entries[o], xi=xi)
        )

        table.insert_scored("v0", "v9", 0.95, 4000.0)
        after = raw_entries(table, "v0")
        assert len(after) == 4
        assert weakest not in after
        assert "v9" in after
        # Everyone except the weakest survived.
        assert set(entries) - {weakest} < set(after)

    def test_sequential_evictions_pop_in_damped_order(self):
        table = self._table(table_size=3)
        xi = table.config.xi
        seeds = [(0.9, 0.0), (0.2, 500.0), (0.6, 1500.0)]
        for i, (raw, t) in enumerate(seeds):
            table.insert_scored("v0", f"v{i + 1}", raw, t)

        # Repeatedly inserting ever-stronger entries must evict survivors
        # in exactly ascending damped order.
        expected_order = sorted(
            raw_entries(table, "v0").items(),
            key=lambda item: _eviction_key(*item[1], xi=xi),
        )
        evicted = []
        present = set(raw_entries(table, "v0"))
        for j, t in enumerate([2000.0, 3000.0, 4000.0]):
            table.insert_scored("v0", f"v{j + 6}", 5.0 + j, t)
            now_present = set(raw_entries(table, "v0"))
            gone = present - now_present
            assert len(gone) == 1
            evicted.append(gone.pop())
            present = now_present
        assert evicted == [vid for vid, _ in expected_order]

    def test_stale_strong_raw_loses_to_fresh_moderate(self):
        """A high raw score from long ago must be evicted before a fresh
        moderate one — damping, not raw magnitude, decides survival."""
        table = self._table(table_size=2)
        table.insert_scored("v0", "v1", 10.0, 0.0)  # strong but ancient
        table.insert_scored(
            "v0", "v2", 0.5, 10 * SECONDS_PER_DAY
        )  # moderate, fresh: damped 10*2^-5 = 0.3125 < 0.5
        table.insert_scored("v0", "v3", 0.6, 10 * SECONDS_PER_DAY)
        after = raw_entries(table, "v0")
        assert "v1" not in after  # the stale titan fell first
        assert set(after) == {"v2", "v3"}
