"""Tests that the default Figure 2 wiring matches the paper's figure."""

from repro.clock import VirtualClock
from repro.data import SyntheticWorld, WorldConfig
from repro.storm import FieldsGrouping
from repro.topology import (
    COMPUTE_MF,
    DEFAULT_PARALLELISM,
    GET_ITEM_PAIRS,
    ITEM_PAIR_SIM,
    MF_STORAGE,
    RESULT_STORAGE,
    SPOUT,
    USER_HISTORY,
    build_recommendation_topology,
)


def _topology():
    world = SyntheticWorld(
        WorldConfig(n_users=5, n_videos=5, n_types=2, days=1, seed=1)
    )
    topo, system = build_recommendation_topology(
        [], world.videos, clock=VirtualClock(0.0)
    )
    return topo, system


class TestFigure2Wiring:
    def test_all_seven_components_present(self):
        topo, _ = _topology()
        assert set(topo.components) == {
            SPOUT,
            USER_HISTORY,
            COMPUTE_MF,
            MF_STORAGE,
            GET_ITEM_PAIRS,
            ITEM_PAIR_SIM,
            RESULT_STORAGE,
        }
        assert set(DEFAULT_PARALLELISM) == set(topo.components)

    def test_spout_fans_out_to_three_lines(self):
        """Figure 2: the spout feeds UserHistory, ComputeMF and
        GetItemPairs — the three processing lines of §5.1."""
        topo, _ = _topology()
        targets = {t for t, _ in topo.targets(SPOUT, "default")}
        assert targets == {USER_HISTORY, COMPUTE_MF, GET_ITEM_PAIRS}

    def test_spout_edges_grouped_by_user(self):
        topo, _ = _topology()
        for _, grouping in topo.targets(SPOUT, "default"):
            assert isinstance(grouping, FieldsGrouping)
            assert grouping.fields == ("user",)

    def test_vector_repartitioning_by_storage_key(self):
        """The critical edge: ComputeMF -> MFStorage re-groups by the
        storage key, the single-writer guarantee."""
        topo, _ = _topology()
        for stream in ("user_vec", "video_vec"):
            targets = topo.targets(COMPUTE_MF, stream)
            assert [t for t, _ in targets] == [MF_STORAGE]
            grouping = targets[0][1]
            assert isinstance(grouping, FieldsGrouping)
            assert grouping.fields == ("kind", "key")

    def test_similarity_line_wiring(self):
        topo, _ = _topology()
        pair_targets = topo.targets(GET_ITEM_PAIRS, "pairs")
        assert [t for t, _ in pair_targets] == [ITEM_PAIR_SIM]
        assert pair_targets[0][1].fields == ("pair",)
        sim_targets = topo.targets(ITEM_PAIR_SIM, "sims")
        assert [t for t, _ in sim_targets] == [RESULT_STORAGE]
        assert sim_targets[0][1].fields == ("video",)

    def test_serving_recommender_shares_store(self):
        _, system = _topology()
        recommender = system.serving_recommender()
        # Both views read the same model state.
        system.model.put_user("ux", system.model._init_vector("user", "ux"), 0.1)
        assert recommender.model.user_bias("ux") == 0.1
