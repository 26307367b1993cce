"""The real-time recommender facade — the pipeline of Figure 1 (paper §4.1).

A :class:`RealtimeRecommender` composes everything: the online MF model and
its adjustable trainer, the user-history store, the similar-video tables,
the candidate selector, and (optionally) the demographic complement.  Two
entry points:

* :meth:`observe` — ingest one user action: update history, train the MF
  model in a single step, refresh the similar-video tables for the pairs
  the action touches, and bump demographic hot lists.
* :meth:`recommend` — serve one request: pick seed videos (the currently
  watched one, or the user's recent history), expand candidates from the
  similar-video tables, predict preferences with Eq. 2, rank, and merge in
  demographic results.

All model state, demographic hot lists included, lives in the one
:class:`~repro.core.state.ModelState` ``state`` (§5), so a checkpoint of
it is the whole model.

Request latency is recorded per call; the paper's production deployment
reports millisecond latencies, which the latency benchmark checks on this
implementation too.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..clock import Clock, SystemClock
from ..config import ReproConfig
from ..data.schema import User, UserAction, Video
from ..obs.registry import Histogram

if TYPE_CHECKING:
    from ..obs import Observability
from .actions import ActionWeigher, LogPlaytimeWeigher, is_engagement
from .annindex import AnnIndex
from .candidates import CandidateSelector
from .demographic import (
    DemographicRecommender,
    HotVideoTracker,
    merge_recommendations,
)
from .history import UserHistoryStore
from .mf import MFModel
from .online import ActionLog, OnlineTrainer
from .simtable import MAX_PAIRS, SimilarVideoTable, pair_partners
from .state import ModelState
from .variants import COMBINE_MODEL, ModelVariant


@dataclass(frozen=True, slots=True)
class Recommendation:
    """One recommended video with its predicted preference."""

    video_id: str
    score: float


class RealtimeRecommender:
    """End-to-end real-time top-N video recommender.

    ``videos`` is the catalogue (needed for durations and types).  Passing
    ``users`` enables the demographic optimizations; without it the system
    degrades to pure MF with a global hot fallback.
    """

    def __init__(
        self,
        videos: Mapping[str, Video],
        users: Mapping[str, User] | None = None,
        config: ReproConfig | None = None,
        variant: ModelVariant = COMBINE_MODEL,
        weigher: ActionWeigher | None = None,
        clock: Clock | None = None,
        state: ModelState | None = None,
        enable_demographic: bool = True,
        wal: "ActionLog | None" = None,
        obs: "Observability | None" = None,
    ) -> None:
        self.videos = videos
        self.users = users or {}
        self.config = config or ReproConfig()
        self.clock = clock or SystemClock()
        self.variant = variant
        self.obs = obs
        self.state = (
            state if state is not None else ModelState(self.config.mf.f)
        )
        self._tracer = obs.tracer if obs is not None else None
        self._now = (
            obs.perf_clock.now if obs is not None else time.perf_counter
        )
        self.request_latency = (
            obs.registry.histogram(
                "recommender_request_latency_seconds",
                "Latency of RealtimeRecommender.recommend calls",
            )
            if obs is not None
            else Histogram("recommender_request_latency_seconds")
        )

        self.model = MFModel(self.config.mf, self.state)
        self.weigher = weigher or LogPlaytimeWeigher(self.config.weights)
        self.trainer = OnlineTrainer(
            self.model,
            videos=videos,
            weigher=self.weigher,
            variant=variant,
            config=self.config.online,
            wal=wal,
            obs=obs,
        )
        self.history = UserHistoryStore(self.state)
        self.table = SimilarVideoTable(
            videos,
            self.model,
            config=self.config.similarity,
            clock=self.clock,
        )
        self.selector = CandidateSelector(self.table, self.config.recommend)
        # Two-stage retrieval (DESIGN.md "Candidate retrieval index"): in
        # "ann" mode an exact scan over the learned video factors produces
        # the shortlist the Eq. 2 re-rank scores.  "table" mode (default)
        # is the paper's path.
        self.index: AnnIndex | None = None
        if self.config.retrieval.mode == "ann":
            self.index = AnnIndex(self.config.mf.f, obs=obs)
        self.demographic: DemographicRecommender | None = None
        if enable_demographic:
            self.demographic = DemographicRecommender(
                self.users,
                tracker=HotVideoTracker(clock=self.clock, state=self.state),
            )

    # ------------------------------------------------------------------
    # Ingestion (User Action Processing in Figure 1)
    # ------------------------------------------------------------------

    def observe(self, action: UserAction) -> None:
        """Fold one user action into every stateful component.

        Order matters: the MF step runs first so the pair similarities are
        computed from the *post-update* vectors, then the pairs between the
        acted-on video and the user's prior history are refreshed, and only
        then is the video pushed onto the history (so it does not pair with
        itself).

        Calls must not overlap: the pair step reads factor rows that an
        SGD step writes in place (DESIGN "``observe`` runs on one thread
        at a time").  :meth:`recommend` may run on other threads beside it.
        """
        trainer = self.trainer
        # The action's weight is computed once: it is the trainer's
        # confidence and the engagement's hot-list weight (1.0 for an
        # action the trainer cannot weigh).
        feedback = (
            trainer.feedback_for(action)
            if trainer.is_playtime_capable(action)
            else None
        )
        update = trainer.process(action, feedback)
        if update is not None and self.index is not None:
            self.index.upsert(action.video_id, update.y_i, update.b_i)
        if is_engagement(action):
            # Histories are deduplicated: the newest MAX_PAIRS + 1 videos
            # hold every partner.
            recent = self.history.recent(action.user_id, MAX_PAIRS + 1)
            self.table.offer_pair(
                action.video_id,
                pair_partners(action.video_id, recent),
                now=action.timestamp,
            )
            self.history.record(action)
            if self.demographic is not None:
                weight = 1.0 if feedback is None else feedback.confidence
                self.demographic.record(action, weight=weight)

    def rebuild_index(self) -> dict | None:
        """(Re)build the retrieval mirror from the model's current factors.

        The recovery hook for ``"ann"`` mode: after a checkpoint restore
        the state's factor arena is authoritative and the mirror is
        rebuilt from it (`AnnIndex.build_from_model`), serving the same
        shortlists as before the crash.  Returns the build report (cost
        included), or ``None`` in ``"table"`` mode.
        """
        if self.index is None:
            return None
        with self._span("ann.rebuild"):
            return self.index.build_from_model(self.model)

    def observe_stream(self, actions) -> int:
        """Observe a whole (time-ordered) stream; return the action count."""
        count = 0
        for action in actions:
            self.observe(action)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Serving (Figure 1 right-hand side)
    # ------------------------------------------------------------------

    def recommend(
        self,
        user_id: str,
        current_video: str | None = None,
        n: int | None = None,
        now: float | None = None,
    ) -> list[Recommendation]:
        """Generate the real-time top-N list for one request."""
        with self._span("recommender.recommend"):
            return self._recommend(user_id, current_video, n=n, now=now)

    def _span(self, name: str):
        """A child span when a trace is already active, else a no-op.

        Gated on an ambient span so bulk offline evaluation (which calls
        :meth:`recommend` thousands of times outside any request) does not
        flood the tracer.
        """
        if self._tracer is not None and self._tracer.current_span() is not None:
            return self._tracer.span(name)
        return nullcontext()

    def _ann_shortlist(
        self,
        user_id: str,
        seeds: list[str],
        exclude: set[str],
        top_n: int,
    ) -> list[str]:
        """Stage-1 shortlist for one request (id-sorted).

        Warm users are one scan with their own vector.  Cold users (no
        learned ``x_u``) fall back to item-to-item scans around the seed
        videos: the seed vectors come from a *single* deduplicated batch
        read and are scored together in one product.
        """
        index = self.index
        assert index is not None
        blocked = exclude | set(seeds)
        x_u = self.model.user_vector(user_id)
        if x_u is not None:
            return index.query_user(x_u, top_n, exclude=blocked)
        vectors = [
            vec
            for vec in self.model.video_vectors_many(list(dict.fromkeys(seeds)))
            if vec is not None
        ]
        if not vectors:
            return []
        return index.query_item(np.vstack(vectors), top_n, exclude=blocked)

    def _recommend(
        self,
        user_id: str,
        current_video: str | None = None,
        n: int | None = None,
        now: float | None = None,
    ) -> list[Recommendation]:
        started = self._now()
        top_n = n if n is not None else self.config.recommend.top_n
        timestamp = self.clock.now() if now is None else now

        with self._span("candidates.select"):
            # Seeds (§4.1): the watched video for "related videos", else the
            # user's recent history for "guess you like".  One history read
            # serves both seed selection and the watched filter (mutually
            # consistent, half the reads).
            snapshot = self.history.snapshot(
                user_id, self.config.recommend.max_seeds
            )
            seeds = (
                [current_video]
                if current_video is not None
                else snapshot.recent
            )
            exclude: set[str] = set()
            if self.config.recommend.exclude_watched:
                exclude = set(snapshot.watched)
            video_ids = (
                [
                    c.video_id
                    for c in self.selector.select(
                        seeds, exclude=exclude, now=timestamp
                    )
                ]
                if self.index is None
                else []
            )

        if self.index is not None:
            # Stage 1 of the two-stage path: the factor-scan shortlist
            # replaces the table expansion; predict_many below is stage 2.
            with self._span("ann.query"):
                video_ids = self._ann_shortlist(user_id, seeds, exclude, top_n)

        ranked: list[Recommendation] = []
        if video_ids:
            with self._span("mf.predict"):
                scores = self.model.predict_many(user_id, video_ids)
            order = sorted(
                range(len(video_ids)),
                key=lambda idx: (-scores[idx], video_ids[idx]),
            )
            ranked = [
                Recommendation(video_ids[idx], float(scores[idx]))
                for idx in order
            ]

        final_ids = [r.video_id for r in ranked]
        if self.demographic is not None:
            db_list = self.demographic.recommend_filtered(
                user_id,
                top_n,
                blocked=exclude | set(seeds),
                now=timestamp,
            )
            # Cold/inactive users with no MF candidates fall back entirely
            # to the demographic hot list; otherwise merge a fraction.
            if not final_ids:
                final_ids = db_list
            else:
                final_ids = merge_recommendations(
                    final_ids,
                    db_list,
                    top_n,
                    self.config.recommend.demographic_slots,
                )
        score_of = {r.video_id: r.score for r in ranked}
        result = [
            Recommendation(vid, score_of.get(vid, 0.0))
            for vid in final_ids[:top_n]
        ]
        self.request_latency.observe(self._now() - started)
        return result

    def recommend_ids(
        self,
        user_id: str,
        current_video: str | None = None,
        n: int | None = None,
        now: float | None = None,
    ) -> list[str]:
        """Like :meth:`recommend` but returning just the video ids."""
        return [
            r.video_id
            for r in self.recommend(user_id, current_video, n=n, now=now)
        ]
