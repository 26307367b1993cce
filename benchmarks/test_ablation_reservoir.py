"""Ablation — Algorithm 1's pure single-pass updating vs reservoir replay.

§2.2/§3.3: some online learners keep "a representative sample of the data
set in a reservoir to retrain the model", "which however is not
appropriate for large streaming data"; the paper's algorithm updates once
per action instead.  This ablation quantifies the trade: reservoir replay
multiplies the per-action training work by (1 + replays) for a modest
quality delta — the single-pass design gets most of the quality at a
fraction of the cost.
"""

import time

from repro.clock import VirtualClock
from repro.core import COMBINE_MODEL, RealtimeRecommender, ReservoirTrainer
from repro.eval import evaluate

from _helpers import format_rows, report, variant_config


class _ReplayRecommender(RealtimeRecommender):
    """RealtimeRecommender whose trainer replays from a reservoir."""

    def __init__(self, *args, replays=2, capacity=2000, **kwargs):
        super().__init__(*args, **kwargs)
        self.trainer = ReservoirTrainer(
            self.trainer, capacity=capacity, replays=replays
        )


def test_ablation_single_pass_vs_reservoir(
    benchmark, paper_world, paper_split, genuine_liked
):
    cfg = variant_config(COMBINE_MODEL)

    def measure(recommender):
        started = time.perf_counter()
        result = evaluate(
            recommender,
            paper_split.train,
            paper_split.test,
            videos=paper_world.videos,
            liked=genuine_liked,
        )
        elapsed = time.perf_counter() - started
        trainer = recommender.trainer
        # ReservoirTrainer wraps the OnlineTrainer; unwrap for its counter.
        inner = getattr(trainer, "trainer", trainer)
        updated = inner.registry.get("trainer_actions_total").labels(
            result="updated"
        )
        return result, elapsed, int(updated.value)

    def run():
        single = RealtimeRecommender(
            paper_world.videos,
            users=paper_world.users,
            config=cfg,
            variant=COMBINE_MODEL,
            clock=VirtualClock(0.0),
            enable_demographic=False,
        )
        replay = _ReplayRecommender(
            paper_world.videos,
            users=paper_world.users,
            config=cfg,
            variant=COMBINE_MODEL,
            clock=VirtualClock(0.0),
            enable_demographic=False,
            replays=2,
        )
        return {
            "single-pass (Algorithm 1)": measure(single),
            "reservoir replay (x3 work)": measure(replay),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        {
            "strategy": name,
            **result.summary(),
            "sgd_updates": updates,
            "train+eval_seconds": round(seconds, 1),
        }
        for name, (result, seconds, updates) in results.items()
    ]
    report("ablation_reservoir", format_rows(rows))

    single_result, _, single_updates = results["single-pass (Algorithm 1)"]
    replay_result, _, replay_updates = results["reservoir replay (x3 work)"]
    # The paper's position: single-pass keeps competitive quality...
    assert single_result.recall(10) >= replay_result.recall(10) * 0.8
    # ...while the reservoir multiplies the per-action training work
    # (deterministic SGD-step count; wall time is machine-load dependent).
    assert replay_updates > 1.5 * single_updates
