"""Model plane — scalar vs batched scoring and training (vectorized plane).

Two comparisons back the batched model plane with numbers:

* **Scoring** — ``predict_many`` on the factor arena (one bias gather +
  one ``(N, f) @ f`` matmul) against the per-candidate scalar loop it
  replaced, at 1k and 10k candidates.  The refactor's acceptance bar is
  >= 5x at 10k candidates.
* **Training** — ``OnlineTrainer.process_batch`` (prefetch + overlay +
  one atomic commit per micro-batch) against per-action ``process`` on
  the same action stream.  Both run the byte-identical SGD trajectory,
  so any speedup is pure storage-plane win.

Emits ``BENCH_model_plane.json``; CI's bench-smoke job fails the build
if the batched paths stop being faster.
"""

import time

import numpy as np

from repro.config import MFConfig
from repro.core import MFModel, OnlineTrainer
from repro.kvstore import InMemoryKVStore

from _emit import emit_bench
from _helpers import build_world, format_rows, report, smoke_scaled

F = 16
RNG_SEED = 413


def _populated_model(n_videos: int) -> MFModel:
    """A model with one user and ``n_videos`` video factors installed."""
    rng = np.random.default_rng(RNG_SEED)
    model = MFModel(MFConfig(f=F), store=InMemoryKVStore())
    items = [("user", "u0", rng.normal(0, 0.1, F), 0.05)]
    items += [
        (
            "video",
            f"v{i}",
            rng.normal(0, 0.1, F),
            float(rng.normal(0, 0.05)),
        )
        for i in range(n_videos)
    ]
    model.put_params_many(items)
    model._meta.put("mu", (1.5 * 64, 64))
    return model


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_model_plane_scoring_and_training_throughput():
    # --- Scoring: scalar loop vs one vectorized predict_many ------------
    n_candidates = 10_000
    model = _populated_model(n_candidates)
    candidates = [f"v{i}" for i in range(n_candidates)]

    scoring_rows = []
    metrics: dict[str, float] = {}
    for count in (1_000, n_candidates):
        subset = candidates[:count]
        scalar_s = _best_of(
            3, lambda: [model.predict("u0", v) for v in subset]
        )
        batched_s = _best_of(
            10, lambda: model.predict_many("u0", subset)
        )
        # Same numbers (to BLAS accumulation order), only faster.
        np.testing.assert_allclose(
            model.predict_many("u0", subset),
            np.array([model.predict("u0", v) for v in subset]),
            rtol=1e-14,
            atol=0.0,
        )
        speedup = scalar_s / batched_s
        scoring_rows.append(
            {
                "candidates": count,
                "scalar_ms": round(scalar_s * 1000.0, 3),
                "batched_ms": round(batched_s * 1000.0, 3),
                "speedup": round(speedup, 1),
            }
        )
        metrics[f"scalar_ms_{count}"] = scalar_s * 1000.0
        metrics[f"batched_ms_{count}"] = batched_s * 1000.0
        metrics[f"predict_many_speedup_{count}"] = speedup

    # --- Training: per-action process vs micro-batched process_batch ----
    world = build_world()
    actions = list(world.generate_actions())[: smoke_scaled(4_000, 1_500)]
    batch_size = 256

    def _train(batched: bool) -> float:
        trained = MFModel(MFConfig(f=F), store=InMemoryKVStore())
        trainer = OnlineTrainer(trained, videos=world.videos)
        started = time.perf_counter()
        if batched:
            for start in range(0, len(actions), batch_size):
                trainer.process_batch(actions[start : start + batch_size])
        else:
            for action in actions:
                trainer.process(action)
        return time.perf_counter() - started

    per_action_s = min(_train(batched=False) for _ in range(2))
    batched_train_s = min(_train(batched=True) for _ in range(2))
    per_action_aps = len(actions) / per_action_s
    batched_aps = len(actions) / batched_train_s
    train_speedup = batched_aps / per_action_aps
    metrics.update(
        {
            "train_per_action_aps": per_action_aps,
            "train_batched_aps": batched_aps,
            "train_speedup": train_speedup,
        }
    )

    report(
        "model_plane",
        format_rows(scoring_rows)
        + "\n\n"
        + format_rows(
            [
                {
                    "training path": "per-action process()",
                    "actions_per_s": round(per_action_aps, 0),
                },
                {
                    "training path": f"process_batch(size={batch_size})",
                    "actions_per_s": round(batched_aps, 0),
                },
            ]
        ),
    )
    emit_bench(
        "model_plane",
        metrics=metrics,
        params={
            "f": F,
            "candidates": n_candidates,
            "train_actions": len(actions),
            "train_batch_size": batch_size,
        },
    )

    # The refactor's reason to exist: batched scoring >= 5x at 10k
    # candidates, micro-batched training strictly faster.
    assert metrics[f"predict_many_speedup_{n_candidates}"] >= 5.0
    assert train_speedup > 1.0
