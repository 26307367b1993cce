"""Adjustable online updating strategy — Algorithm 1 (paper §3.3).

The model is updated at each new user action in a single step, no
iterations.  The influence of an action is proportional to its confidence:
the learning rate is ``eta_ui = eta0 + alpha * w_ui`` (Eq. 8), so
low-confidence actions (likely noise) barely move the model while
high-confidence ones (long watches, comments) move it decisively.  Actions
with ``r_ui = 0`` (impressions) never update the model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Protocol

from ..config import OnlineConfig
from ..data.schema import ActionType, UserAction, Video
from ..errors import DataError
from ..obs.registry import Children, MetricsRegistry
from .actions import ActionWeigher, LogPlaytimeWeigher
from .feedback import Feedback, extract_feedback
from .mf import MFModel, MFUpdate
from .variants import COMBINE_MODEL, ModelVariant

if TYPE_CHECKING:
    from ..obs import Observability


class ActionLog(Protocol):
    """Anything that can durably record an action before it is applied.

    Structurally matches :class:`repro.reliability.ActionWAL` without
    importing it — core stays free of the reliability package.
    """

    def append(self, action: UserAction) -> int:
        """Persist one action; return its log position."""
        ...  # pragma: no cover - protocol body


#: The ``result`` label values of ``trainer_actions_total``: every action
#: processed is counted under exactly one.
_RESULTS = ("updated", "skipped_zero", "skipped_invalid")


class OnlineTrainer:
    """Drives an :class:`~repro.core.mf.MFModel` with a stream of actions.

    ``videos`` supplies durations for PlayTime view rates; PLAYTIME actions
    on unknown videos are counted as invalid and skipped, mirroring the
    spout's "filters the unqualified data tuples" step (§5.1).

    Each processed action is counted once, in
    ``trainer_actions_total{result}`` of ``registry``: ``obs.registry``
    when ``obs`` is given, a private :class:`~repro.obs.MetricsRegistry`
    otherwise (the rule :class:`~repro.storm.metrics.TopologyMetrics`
    follows).
    """

    def __init__(
        self,
        model: MFModel,
        videos: Mapping[str, Video] | None = None,
        weigher: ActionWeigher | None = None,
        variant: ModelVariant = COMBINE_MODEL,
        config: OnlineConfig | None = None,
        wal: ActionLog | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        self.model = model
        self.videos = videos or {}
        self.weigher = weigher or LogPlaytimeWeigher()
        self.variant = variant
        self.config = config or OnlineConfig()
        self.wal = wal
        self._tracer = obs.tracer if obs is not None else None
        self.registry = obs.registry if obs is not None else MetricsRegistry()
        self._actions = Children(
            self.registry.counter(
                "trainer_actions_total",
                "Actions processed by the online trainer, by result",
                labelnames=("result",),
            )
        )

    @property
    def seen(self) -> int:
        """Actions processed so far: ``trainer_actions_total`` summed over
        its results."""
        return sum(
            int(child.value)
            for child in map(self._actions.peek, _RESULTS)
            if child is not None
        )

    def learning_rate(self, confidence: float) -> float:
        """Eq. 8, clamped at ``max_eta`` for stability."""
        if self.variant.adjustable:
            eta = self.config.eta0 + self.config.alpha * confidence
        else:
            eta = self.config.eta0
        return min(eta, self.config.max_eta)

    def feedback_for(self, action: UserAction) -> Feedback:
        """The ``(r_ui, w_ui)`` this trainer's variant assigns to an action."""
        video = self.videos.get(action.video_id)
        return extract_feedback(
            action, self.weigher, self.variant.rating_mode, video
        )

    def process(
        self, action: UserAction, feedback: Feedback | None = None
    ) -> MFUpdate | None:
        """Handle one action; return the applied update, or ``None``.

        ``None`` means the action carried no positive evidence (an
        impression) or was invalid (PLAYTIME without a known duration).
        Either way ``mu`` bookkeeping still happens for valid actions.
        ``feedback`` is :meth:`feedback_for` of ``action`` when the caller
        already computed it (the recommender weighs the engagement's hot
        lists with it too); ``None`` computes it here.

        With a write-ahead log attached the action is logged *before* any
        state changes, so crash recovery can replay it
        (:mod:`repro.reliability.replay`).
        """
        if self._tracer is not None and self._tracer.current_span() is not None:
            with self._tracer.span("trainer.process"):
                return self._process(action, feedback)
        return self._process(action, feedback)

    def _process(
        self, action: UserAction, feedback: Feedback | None
    ) -> MFUpdate | None:
        if self.wal is not None:
            self.wal.append(action)
        if feedback is None:
            try:
                feedback = self.feedback_for(action)
            except DataError:
                self._actions["skipped_invalid"].inc()
                return None
        self.model.observe_rating(feedback.rating)
        if not feedback.is_positive:
            self._actions["skipped_zero"].inc()
            return None
        eta = self.learning_rate(feedback.confidence)
        update = self.model.sgd_step(
            action.user_id, action.video_id, feedback.rating, eta
        )
        self._actions["updated"].inc()
        return update

    def process_batch(self, actions: list[UserAction]) -> list[MFUpdate | None]:
        """Process a micro-batch of actions with batched arena traffic.

        Semantically identical to calling :meth:`process` per action in
        order — same WAL appends, same counters, same model
        parameters (the SGD steps replay sequentially through a
        :class:`~repro.core.mf.MFBatchSession` overlay) — but vectors,
        biases and ``mu`` are read once up front and written once at the
        end.  A batch of one is exactly the sequential code path.
        """
        if not actions:
            return []
        if len(actions) == 1:
            return [self.process(actions[0])]
        if self.wal is not None:
            for action in actions:
                self.wal.append(action)
        session = self.model.batch_session(
            (action.user_id for action in actions),
            (action.video_id for action in actions),
        )
        results: list[MFUpdate | None] = []
        for action in actions:
            try:
                feedback = self.feedback_for(action)
            except DataError:
                self._actions["skipped_invalid"].inc()
                results.append(None)
                continue
            session.observe_rating(feedback.rating)
            if not feedback.is_positive:
                self._actions["skipped_zero"].inc()
                results.append(None)
                continue
            eta = self.learning_rate(feedback.confidence)
            update = session.sgd_step(
                action.user_id, action.video_id, feedback.rating, eta
            )
            self._actions["updated"].inc()
            results.append(update)
        session.commit()
        return results

    def is_playtime_capable(self, action: UserAction) -> bool:
        """Whether this trainer can weight ``action`` (duration known)."""
        return (
            action.action is not ActionType.PLAYTIME
            or action.video_id in self.videos
        )
