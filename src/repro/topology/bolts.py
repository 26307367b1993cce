"""The six bolts of the Figure 2 topology (paper §5.1).

Three processing lines fan out from the spout:

1. ``ComputeMF -> MFStorage`` — model updating.  ``ComputeMF`` reads the
   current vectors, computes the single-step SGD update (Algorithm 1) with
   the system's one :class:`~repro.core.online.OnlineTrainer` supplying
   ``(r, w)`` and Eq. 8, and emits the *new* vectors re-partitioned by
   their storage key; ``MFStorage`` — the only writer of MF parameters —
   persists them, one tuple at a time.  The fields grouping between the
   two guarantees a single worker per key, so vector updates are atomic
   without locks.
2. ``UserHistory`` — records each user's behaviour history.
3. ``GetItemPairs -> ItemPairSim -> ResultStorage`` — similar-video table
   maintenance: pair the acted-on video with the user's recent history,
   score each pair (Eq. 12's raw fusion), store the per-video top-K lists.

Every bolt instance is one worker's private object; all shared state lives
in the model's :class:`~repro.core.state.ModelState`, as it lives in the
KV storage of the production design.
"""

from __future__ import annotations

from ..core.actions import is_engagement
from ..core.history import UserHistoryStore
from ..core.mf import MFModel
from ..core.online import OnlineTrainer
from ..core.simtable import MAX_PAIRS, SimilarVideoTable, pair_partners
from ..data.schema import UserAction
from ..errors import DataError
from ..storm import Bolt, Collector, StreamTuple

#: Stream names used between the bolts.
USER_VEC_STREAM = "user_vec"
VIDEO_VEC_STREAM = "video_vec"
PAIR_STREAM = "pairs"
SIM_STREAM = "sims"


class ComputeMFBolt(Bolt):
    """Computes Algorithm 1's new parameters and emits them keyed for
    storage.  Never writes vectors itself (``persist_init=False``).

    ``trainer`` is the system's :class:`~repro.core.online.OnlineTrainer`,
    the one owner of ``(r, w)`` extraction and Eq. 8's learning rate; the
    bolt reads its model and folds ``mu``, but parameter writes are left
    to ``MFStorage``, the single writer per key.
    """

    def __init__(self, trainer: OnlineTrainer) -> None:
        self.trainer = trainer

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        action: UserAction = tup["action"]
        try:
            feedback = self.trainer.feedback_for(action)
        except DataError:
            return  # unqualified tuple: PLAYTIME without a known duration
        model = self.trainer.model
        model.observe_rating(feedback.rating)
        if not feedback.is_positive:
            return
        update = model.compute_update(
            action.user_id,
            action.video_id,
            feedback.rating,
            self.trainer.learning_rate(feedback.confidence),
            persist_init=False,
        )
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


class MFStorageBolt(Bolt):
    """The single writer of MF parameters (per fields-grouped key)."""

    def __init__(self, model: MFModel) -> None:
        self.model = model
        self.writes = 0

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        if tup["kind"] == "user":
            self.model.put_user(tup["key"], tup["vector"], tup["bias"])
        else:
            self.model.put_video(tup["key"], tup["vector"], tup["bias"])
        self.writes += 1


class UserHistoryBolt(Bolt):
    """Records user behaviour histories in the model state."""

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
        self, history: UserHistoryStore, max_pairs: int = MAX_PAIRS
    ) -> None:
        self.history = history
        self.max_pairs = max_pairs

    def process(self, tup: StreamTuple, collector: Collector) -> None:
        action: UserAction = tup["action"]
        if not is_engagement(action):
            return
        recent = self.history.recent(action.user_id)
        video_i = action.video_id
        for video_j in pair_partners(video_i, recent, limit=self.max_pairs):
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
