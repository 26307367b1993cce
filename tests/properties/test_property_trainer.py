"""Property-based tests for the online trainer's bookkeeping invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import OnlineConfig
from repro.core import MFModel, OnlineTrainer
from repro.core.variants import ALL_VARIANTS
from repro.data import ActionType, UserAction, Video
from tests.support.obs import registry_total

VIDEOS = {f"v{i}": Video(f"v{i}", "t", duration=1000.0) for i in range(5)}

actions = st.builds(
    lambda ts, user, video, kind, vt: UserAction(
        ts,
        f"u{user}",
        f"v{video}",
        kind,
        view_time=(vt if kind is ActionType.PLAYTIME else 0.0),
    ),
    ts=st.floats(min_value=0, max_value=1e6),
    user=st.integers(0, 4),
    video=st.integers(0, 7),  # ids 5-7 are unknown to the catalogue
    kind=st.sampled_from(list(ActionType)),
    vt=st.floats(min_value=1.0, max_value=2000.0),
)


class TestTrainerAccounting:
    @settings(max_examples=30, deadline=None)
    @given(stream=st.lists(actions, max_size=60), variant=st.sampled_from(ALL_VARIANTS))
    def test_counters_partition_the_stream(self, stream, variant):
        """Every action is counted once, under updated, skipped_zero or
        skipped_invalid, and ``seen`` is their sum."""
        trainer = OnlineTrainer(
            MFModel(),
            videos=VIDEOS,
            variant=variant,
            config=OnlineConfig(eta0=0.01, alpha=0.01),
        )
        for action in stream:
            trainer.process(action)
        totals = {
            result: registry_total(
                trainer.registry, "trainer_actions_total", result=result
            )
            for result in ("updated", "skipped_zero", "skipped_invalid")
        }
        assert sum(totals.values()) == trainer.seen == len(stream)
        # every update touched existing entities
        assert trainer.model.n_users <= 5

    @settings(max_examples=30, deadline=None)
    @given(stream=st.lists(actions, max_size=60))
    def test_learning_rate_always_in_declared_range(self, stream):
        config = OnlineConfig(eta0=0.005, alpha=0.02, max_eta=0.05)
        trainer = OnlineTrainer(
            MFModel(), videos=VIDEOS, config=config
        )
        for action in stream:
            update = trainer.process(action)
            if update is not None:
                assert config.eta0 <= update.eta <= config.max_eta
