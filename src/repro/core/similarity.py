"""Video-pair similarity factors and their fusion (paper §4.2, Eqs. 9-12).

Three factors contribute to the relevance of a video pair:

* **CF similarity** (Eq. 9) — the inner product of the MF latent vectors;
* **type similarity** (Eq. 10) — 1 if the two videos share a fine-grained
  type, else 0;
* **time factor** (Eq. 11) — a damping ``d = 2^(-dt/xi)`` that forgets
  stale similarities as their last supporting user action recedes.

The overall relevance (Eq. 12) is ``sim = d * ((1-beta)*s1 + beta*s2)``.
"""

from __future__ import annotations

import numpy as np

from ..config import SimilarityConfig
from ..data.schema import Video


def cf_similarity(y_i: np.ndarray, y_j: np.ndarray) -> float:
    """Eq. 9: latent-factor similarity ``s1 = y_i . y_j``."""
    return float(np.dot(y_i, y_j))


def type_similarity(video_i: Video, video_j: Video) -> float:
    """Eq. 10: 1 when the fine-grained types match, else 0."""
    return 1.0 if video_i.kind == video_j.kind else 0.0


def damping(elapsed: float, xi: float) -> float:
    """Eq. 11: ``d = 2^(-dt/xi)`` — halves every ``xi`` seconds.

    ``elapsed`` is the time since the similarity's last update; negative
    values (clock skew) are clamped to zero so damping never exceeds 1.
    """
    if xi <= 0:
        raise ValueError(f"damping half-life xi must be positive, got {xi}")
    return float(2.0 ** (-max(0.0, elapsed) / xi))


def fuse(s1: float, s2: float, beta: float) -> float:
    """The convex combination ``(1-beta)*s1 + beta*s2`` inside Eq. 12."""
    if not 0 <= beta <= 1:
        raise ValueError(f"fusion weight beta must be in [0, 1], got {beta}")
    return fused(s1, s2, beta)


def fused(s1: float, s2: float, beta: float) -> float:
    """:func:`fuse` for a ``beta`` already checked (a
    :class:`~repro.config.SimilarityConfig` checks its own): the one
    definition of Eq. 12's fusion, called once per scored pair."""
    return (1.0 - beta) * s1 + beta * s2


class SimilarityScorer:
    """Computes the fused, damped relevance of Eq. 12 for video pairs.

    The scorer is stateless; the per-pair update timestamps live in the
    :class:`~repro.core.simtable.SimilarVideoTable` that calls it.
    """

    def __init__(self, config: SimilarityConfig | None = None) -> None:
        self.config = config or SimilarityConfig()

    def raw_relevance(
        self,
        video_i: Video,
        y_i: np.ndarray,
        video_j: Video,
        y_j: np.ndarray,
    ) -> float:
        """The undamped fusion ``(1-beta)*s1 + beta*s2`` at update time."""
        s1 = cf_similarity(y_i, y_j)
        s2 = type_similarity(video_i, video_j)
        return fuse(s1, s2, self.config.beta)

    def damped(self, raw: float, elapsed: float) -> float:
        """Apply Eq. 11's decay to a stored raw relevance."""
        return raw * damping(elapsed, self.config.xi)
