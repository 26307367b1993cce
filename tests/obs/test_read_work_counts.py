"""Work counts of the read path, lowered and never raised.

The served demo (``build_demo_gateway`` on the seed-2016 20 x 150 world)
answers 200 fixed requests through ``RequestRouter.handle``, half of them
with a current video.  Counted, exactly, on that run:

* damping evaluations — Eq. 11 on a similar-list entry
  (``SimilarityScorer.damped``) or a hot-table entry
  (``HotVideoTracker._decayed``);
* items scored by Eq. 2 (``MFModel.predict_many``'s candidates);
* spans opened (``Tracer.start_span``).

Each per-request figure is bounded by a named constant at its measured
value; a change that makes the read path do less lowers the bound.
"""

import random

import pytest

from repro.core.demographic import HotVideoTracker
from repro.core.mf import MFModel
from repro.core.similarity import SimilarityScorer
from repro.obs.trace import Tracer
from repro.serving import GatewayConfig, RecRequest
from repro.serving.cli import build_demo_gateway

N_REQUESTS = 200
#: Read time: the end of the world's seven days.
NOW = 7 * 86400.0

#: Exact totals over the 200 requests.
RECORDED_READ_TOTALS = {"damped": 47559, "scored": 5916, "spans": 800}
#: The same figures per request, as bounds: 237.8 damping evaluations (the
#: similar lists of a request's seeds and the hot tables it reads), 29.6
#: Eq. 2 scores, and four spans (router, recommender, candidate selection,
#: scoring).
MAX_DAMPED_PER_REQUEST = 237.8
MAX_SCORED_PER_REQUEST = 29.6
MAX_SPANS_PER_REQUEST = 4.0


def _requests(recommender) -> list[RecRequest]:
    rng = random.Random(18)
    users, videos = sorted(recommender.users), sorted(recommender.videos)
    return [
        RecRequest(
            rng.choice(users),
            current_video=rng.choice(videos) if i % 2 == 0 else None,
            n=10,
            timestamp=NOW,
        )
        for i in range(N_REQUESTS)
    ]


def _counting(monkeypatch, cls, name, counts, key, size=lambda *a, **k: 1):
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        counts[key] += size(*args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


@pytest.fixture(scope="module")
def gateway():
    return build_demo_gateway(
        GatewayConfig(port=0), rate=None, n_users=20, n_videos=150, seed=2016
    )


def test_read_path_work_counts(monkeypatch, gateway):
    requests = _requests(gateway.router.recommender)
    counts = dict.fromkeys(RECORDED_READ_TOTALS, 0)
    _counting(monkeypatch, SimilarityScorer, "damped", counts, "damped")
    _counting(monkeypatch, HotVideoTracker, "_decayed", counts, "damped")
    _counting(
        monkeypatch,
        MFModel,
        "predict_many",
        counts,
        "scored",
        size=lambda self, user_id, video_ids: len(video_ids),
    )
    _counting(monkeypatch, Tracer, "start_span", counts, "spans")
    for request in requests:
        assert gateway.router.handle(request).ok
    assert counts == RECORDED_READ_TOTALS
    assert counts["damped"] / N_REQUESTS <= MAX_DAMPED_PER_REQUEST
    assert counts["scored"] / N_REQUESTS <= MAX_SCORED_PER_REQUEST
    assert counts["spans"] / N_REQUESTS <= MAX_SPANS_PER_REQUEST
