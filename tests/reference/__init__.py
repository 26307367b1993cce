"""Slow, obviously-correct references that production is diffed against."""

from functools import partial

import numpy as np

from tests.support.obs import registry_total

from .oracle import VARIANTS, ReferenceModel

__all__ = ["RTOL", "VARIANTS", "ReferenceModel", "assert_matches_oracle"]

#: Production takes ``x_u . y_i`` with numpy's ``@``, the oracle with a
#: left-to-right Python sum; the two accumulate in different orders, so the
#: errors — and everything learned from them — agree to rounding, not bits.
RTOL = 1e-12
_close = partial(np.testing.assert_allclose, rtol=RTOL)


def assert_matches_oracle(model, trainer, oracle: ReferenceModel, n: int = 10):
    """A production model (and its trainer's counters) equals the oracle:
    same outcome counts, ``mu``, entities, factors, biases and top-``n``."""
    for outcome, count in oracle.counts.items():
        total = registry_total(
            trainer.registry, "trainer_actions_total", result=outcome
        )
        assert total == count, outcome
    _close(model.mu, oracle.mu)
    assert model.n_users == len(oracle.x)
    videos = sorted(oracle.y)
    assert sorted(model.video_rows()[0]) == videos
    for user_id, x_u in oracle.x.items():
        _close(model.user_vector(user_id), x_u)
        _close(model.user_bias(user_id), oracle.bu[user_id])
        ranked = sorted(zip(-model.predict_many(user_id, videos), videos))[:n]
        assert [video_id for _, video_id in ranked] == oracle.top_n(user_id, n)
    for video_id, y_i in oracle.y.items():
        _close(model.video_vector(video_id), y_i)
        _close(model.video_bias(video_id), oracle.bi[video_id])
