"""The six bolts of the Figure 2 topology (paper §5.1).

Three processing lines fan out from the spout:

1. ``ComputeMF -> MFStorage`` — model updating.  ``ComputeMF`` reads the
   current vectors, computes the single-step SGD update (Algorithm 1) and
   emits the *new* vectors re-partitioned by their storage key;
   ``MFStorage`` — the only writer of MF parameters — persists them.  The
   fields grouping between the two guarantees a single worker per key, so
   vector updates are atomic without locks.
2. ``UserHistory`` — records each user's behaviour history.
3. ``GetItemPairs -> ItemPairSim -> ResultStorage`` — similar-video table
   maintenance: pair the acted-on video with the user's recent history,
   score each pair (Eq. 12's raw fusion), store the per-video top-K lists.

Every bolt instance is one worker's private object; all shared state lives
in the KV store, exactly as in the production design.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Mapping

from ..config import OnlineConfig
from ..core.actions import ActionWeigher
from ..core.history import UserHistoryStore
from ..core.mf import MFModel
from ..core.online import OnlineTrainer
from ..core.simtable import SimilarVideoTable, generate_pairs
from ..core.variants import COMBINE_MODEL, ModelVariant
from ..data.schema import UserAction, Video
from ..data.stream import ENGAGEMENT_ACTIONS
from ..errors import DataError
from ..reliability.deadletter import (
    REASON_DUPLICATE,
    REASON_LATE,
    REASON_MALFORMED,
    DeadLetterStore,
)
from ..storm import Bolt, Collector, StreamTuple

if TYPE_CHECKING:
    from ..obs import Tracer

#: Stream names used between the bolts.
USER_VEC_STREAM = "user_vec"
VIDEO_VEC_STREAM = "video_vec"
PAIR_STREAM = "pairs"
SIM_STREAM = "sims"
SANITIZED_STREAM = "actions"


class SanitizeBolt(Bolt):
    """Ingest hygiene at the head of the topology (§5.1's "filters the
    unqualified data tuples", made observable).

    Consumes raw spout tuples (``{"raw": <log line | UserAction>}``) and
    emits clean, canonical action tuples on :data:`SANITIZED_STREAM`.
    Three defect classes are intercepted and routed to the
    :class:`~repro.reliability.deadletter.DeadLetterStore` with exact
    reason codes instead of reaching (and skewing) the model:

    * **malformed** — unparseable log lines (``DataError``);
    * **duplicate** — an identical ``(user, video, action, timestamp,
      view_time)`` event inside the bounded dedup window — e.g. an
      at-least-once redelivery upstream — which would otherwise apply the
      same SGD step twice;
    * **late** — events older than ``max_lateness_seconds`` behind the
      watermark (the maximum event time seen), whose damping factor
      ``2^(-dt/xi)`` would be computed against long-stale state.

    Deterministic: the watermark and the dedup window advance on *event*
    time only, never wall time.  The dedup window is bounded both in time
    (``dedup_window_seconds``) and in entries (``dedup_max_keys``, FIFO
    eviction), so memory cannot grow with the stream.
    """

    def __init__(
        self,
        dead_letters: DeadLetterStore,
        dedup_window_seconds: float = 3600.0,
        max_lateness_seconds: float = 86_400.0,
        dedup_max_keys: int = 65_536,
    ) -> None:
        if dedup_window_seconds < 0:
            raise ValueError("dedup_window_seconds must be >= 0")
        if max_lateness_seconds < 0:
            raise ValueError("max_lateness_seconds must be >= 0")
        if dedup_max_keys < 1:
            raise ValueError("dedup_max_keys must be >= 1")
        self.dead_letters = dead_letters
        self.dedup_window_seconds = dedup_window_seconds
        self.max_lateness_seconds = max_lateness_seconds
        self.dedup_max_keys = dedup_max_keys
        self.watermark = float("-inf")
        self.accepted = 0
        self.rejected = 0
        self._seen: OrderedDict[tuple, float] = OrderedDict()

    def _reject(self, reason: str, payload, detail: str) -> None:
        self.rejected += 1
        self.dead_letters.add(reason, payload, detail)

    def _evict(self) -> None:
        horizon = self.watermark - self.dedup_window_seconds
        while self._seen:
            _, ts = next(iter(self._seen.items()))
            if ts >= horizon and len(self._seen) <= self.dedup_max_keys:
                break
            self._seen.popitem(last=False)

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        raw = tup["raw"] if "raw" in tup else tup["action"]
        if isinstance(raw, UserAction):
            action = raw
        else:
            try:
                action = UserAction.from_log_line(raw)
            except DataError as exc:
                self._reject(REASON_MALFORMED, raw, str(exc))
                return

        if (
            self.watermark != float("-inf")
            and action.timestamp < self.watermark - self.max_lateness_seconds
        ):
            self._reject(
                REASON_LATE,
                action,
                f"timestamp {action.timestamp:.3f} is "
                f"{self.watermark - action.timestamp:.3f}s behind the "
                f"watermark (max lateness {self.max_lateness_seconds:.0f}s)",
            )
            return

        key = (
            action.user_id,
            action.video_id,
            action.action.value,
            action.timestamp,
            action.view_time,
        )
        if key in self._seen:
            self._reject(
                REASON_DUPLICATE,
                action,
                "identical event already seen inside the dedup window",
            )
            return

        self.watermark = max(self.watermark, action.timestamp)
        self._seen[key] = action.timestamp
        self._evict()
        self.accepted += 1
        collector.emit(
            {
                "user": action.user_id,
                "video": action.video_id,
                "action": action,
            },
            stream=SANITIZED_STREAM,
        )


class ComputeMFBolt(Bolt):
    """Computes Algorithm 1's new parameters and emits them keyed for
    storage.  Never writes vectors itself (``persist_init=False``).

    ``batch_size > 1`` turns on opt-in micro-batching: actions buffer in
    the worker and are trained through one
    :class:`~repro.core.mf.MFBatchSession` per flush (one batched read,
    one ``mu`` fold), with the new vectors emitted at flush time.  The SGD
    arithmetic replays sequentially through the overlay, so the emitted
    parameters match the unbatched path; what changes is write latency
    (downstream sees updates per flush, not per tuple) and crash exposure
    (a restarted worker loses its buffered, not-yet-flushed actions — the
    WAL/replay path still covers them).  The default ``batch_size=1`` is
    exactly the original per-tuple behaviour.
    """

    def __init__(
        self,
        model: MFModel,
        videos: Mapping[str, Video],
        weigher: ActionWeigher | None = None,
        variant: ModelVariant = COMBINE_MODEL,
        online: OnlineConfig | None = None,
        tracer: "Tracer | None" = None,
        batch_size: int = 1,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        # Never driven (no ``process`` calls, so no parameter writes): the
        # trainer is here as the one owner of ``(r, w)`` extraction and Eq. 8.
        self._trainer = OnlineTrainer(model, videos, weigher, variant, online)
        self.tracer = tracer
        self.batch_size = batch_size
        self._pending: list[UserAction] = []

    def _feedback(self, action: UserAction):
        """``(r, w)`` of one action; ``None`` for an unqualified tuple
        (PLAYTIME without a known duration)."""
        try:
            return self._trainer.feedback_for(action)
        except DataError:
            return None

    def _emit_update(self, update, collector: Collector) -> None:
        collector.emit(
            {
                "kind": "user",
                "key": update.user_id,
                "vector": update.x_u,
                "bias": update.b_u,
            },
            stream=USER_VEC_STREAM,
        )
        collector.emit(
            {
                "kind": "video",
                "key": update.video_id,
                "vector": update.y_i,
                "bias": update.b_i,
            },
            stream=VIDEO_VEC_STREAM,
        )

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        action: UserAction = tup["action"]
        if self.batch_size > 1:
            self._pending.append(action)
            if len(self._pending) >= self.batch_size:
                self._run_batch(collector)
            return
        feedback = self._feedback(action)
        if feedback is None:
            return
        self.model.observe_rating(feedback.rating)
        if not feedback.is_positive:
            return
        if self.tracer is not None and self.tracer.current_span() is not None:
            with self.tracer.span("trainer.update"):
                self._update(action, feedback, collector)
        else:
            self._update(action, feedback, collector)

    def flush(self, collector: Collector) -> None:
        if self.batch_size > 1:
            self._run_batch(collector)

    def _run_batch(self, collector: Collector) -> None:
        if not self._pending:
            return
        actions, self._pending = self._pending, []
        feedbacks = [self._feedback(action) for action in actions]
        session = self.model.batch_session(
            (
                action.user_id
                for action, feedback in zip(actions, feedbacks)
                if feedback is not None and feedback.is_positive
            ),
            (
                action.video_id
                for action, feedback in zip(actions, feedbacks)
                if feedback is not None and feedback.is_positive
            ),
        )
        for action, feedback in zip(actions, feedbacks):
            if feedback is None:
                continue
            session.observe_rating(feedback.rating)
            if not feedback.is_positive:
                continue
            update = session.sgd_step(
                action.user_id,
                action.video_id,
                feedback.rating,
                self._trainer.learning_rate(feedback.confidence),
            )
            self._emit_update(update, collector)
        # Only the mu fold is committed here: MFStorage stays the single
        # writer of parameters, fed by the emissions above.
        session.commit(params=False)

    def _update(self, action, feedback, collector: Collector) -> None:
        update = self.model.compute_update(
            action.user_id,
            action.video_id,
            feedback.rating,
            self._trainer.learning_rate(feedback.confidence),
            persist_init=False,
        )
        self._emit_update(update, collector)


class MFStorageBolt(Bolt):
    """The single writer of MF parameters (per fields-grouped key).

    With ``batch_size > 1`` incoming parameter tuples buffer and land in
    one :meth:`~repro.core.mf.MFModel.put_params_many` per flush — one
    batched store write per kind instead of one put per tuple.  Ordering
    within the buffer is preserved (later tuples win, as sequential puts
    would), and fields grouping still guarantees this worker is the only
    writer of its keys.  Default ``batch_size=1`` writes per tuple.
    """

    def __init__(self, model: MFModel, batch_size: int = 1) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.batch_size = batch_size
        self.writes = 0
        self._pending: list[tuple[str, str, object, float]] = []

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        if self.batch_size > 1:
            self._pending.append(
                (tup["kind"], tup["key"], tup["vector"], tup["bias"])
            )
            if len(self._pending) >= self.batch_size:
                self._run_batch()
            return
        if tup["kind"] == "user":
            self.model.put_user(tup["key"], tup["vector"], tup["bias"])
        else:
            self.model.put_video(tup["key"], tup["vector"], tup["bias"])
        self.writes += 1

    def flush(self, collector: Collector) -> None:
        if self.batch_size > 1:
            self._run_batch()

    def _run_batch(self) -> None:
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.model.put_params_many(batch)
        self.writes += len(batch)


class UserHistoryBolt(Bolt):
    """Records user behaviour histories in the KV store."""

    def __init__(self, history: UserHistoryStore) -> None:
        self.history = history

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        self.history.record(tup["action"])


class GetItemPairsBolt(Bolt):
    """Generates ``<video1#video2>`` pair tuples from user histories.

    Pairs the acted-on video with the user's *other* recent videos; the
    user's own history bolt runs on the same fields-grouped worker set, so
    by Figure 2's wiring the history this bolt reads is that user's.
    """

    def __init__(
        self, history: UserHistoryStore, max_pairs: int = 20
    ) -> None:
        self.history = history
        self.max_pairs = max_pairs

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        action: UserAction = tup["action"]
        if action.action not in ENGAGEMENT_ACTIONS:
            return
        recent = self.history.recent(action.user_id)
        for video_i, video_j in generate_pairs(
            action.video_id, recent, limit=self.max_pairs
        ):
            key = f"{min(video_i, video_j)}#{max(video_i, video_j)}"
            collector.emit(
                {
                    "pair": key,
                    "video_i": video_i,
                    "video_j": video_j,
                    "ts": action.timestamp,
                },
                stream=PAIR_STREAM,
            )


class ItemPairSimBolt(Bolt):
    """Scores pair tuples with Eq. 12's raw fusion and emits directed
    ``<video, other, sim>`` tuples keyed by the video whose list changes."""

    def __init__(self, table: SimilarVideoTable) -> None:
        self.table = table

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        raw = self.table.score_pair(tup["video_i"], tup["video_j"])
        if raw is None:
            return
        for video, other in (
            (tup["video_i"], tup["video_j"]),
            (tup["video_j"], tup["video_i"]),
        ):
            collector.emit(
                {
                    "video": video,
                    "other": other,
                    "sim": raw,
                    "ts": tup["ts"],
                },
                stream=SIM_STREAM,
            )


class ResultStorageBolt(Bolt):
    """Maintains the per-video top-K similar lists (single writer per
    video key, again via fields grouping)."""

    def __init__(self, table: SimilarVideoTable) -> None:
        self.table = table
        self.writes = 0

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        self.table.insert_scored(
            tup["video"], tup["other"], tup["sim"], tup["ts"]
        )
        self.writes += 1
