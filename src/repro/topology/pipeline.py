"""Wiring of the Figure 2 topology plus a serving view over its state.

:func:`build_recommendation_topology` assembles the spout and six bolts with
the groupings of the paper's figure:

* spout ``-> UserHistory``, ``ComputeMF``, ``GetItemPairs``: fields grouping
  by ``user`` (the figure's ``:user`` edge) so one worker owns each user's
  processing;
* ``ComputeMF -> MFStorage``: fields grouping by ``(kind, key)`` — the
  re-partitioning that makes vector updates single-writer;
* ``GetItemPairs -> ItemPairSim``: fields grouping by ``pair`` (queries for
  the same pair land on the same worker, enabling the cache/combiner
  optimizations of §5.1);
* ``ItemPairSim -> ResultStorage``: fields grouping by ``video`` (the
  figure's ``<video1#video2,sim>:video1`` edge).

The topology's state is built once, as one
:class:`~repro.core.recommender.RealtimeRecommender` (no demographic
component) over one shared :class:`~repro.core.state.ModelState`: the
bolts write its model, history
and similar-video table, ``ComputeMF`` takes ``(r, w)`` and Eq. 8 from its
trainer, and :meth:`RecommendationSystem.serving_recommender` returns it as
the serving layer for whatever the topology has learned so far.  Every
bolt processes one tuple at a time; batched training lives in
:meth:`~repro.core.online.OnlineTrainer.process_batch`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from ..clock import Clock, SystemClock
from ..core.recommender import RealtimeRecommender
from ..core.state import ModelState
from ..core.variants import COMBINE_MODEL, ModelVariant
from ..data.schema import User, UserAction, Video
from ..storm import Topology, TopologyBuilder
from .bolts import (
    ComputeMFBolt,
    GetItemPairsBolt,
    ItemPairSimBolt,
    MFStorageBolt,
    ResultStorageBolt,
    UserHistoryBolt,
)
from .spout import ActionSpout, SharedSource

if TYPE_CHECKING:
    from ..obs import Observability

#: Component names, matching Figure 2.
SPOUT = "spout"
USER_HISTORY = "user_history"
COMPUTE_MF = "compute_mf"
MF_STORAGE = "mf_storage"
GET_ITEM_PAIRS = "get_item_pairs"
ITEM_PAIR_SIM = "item_pair_sim"
RESULT_STORAGE = "result_storage"

DEFAULT_PARALLELISM: Mapping[str, int] = {
    SPOUT: 1,
    USER_HISTORY: 2,
    COMPUTE_MF: 2,
    MF_STORAGE: 2,
    GET_ITEM_PAIRS: 2,
    ITEM_PAIR_SIM: 2,
    RESULT_STORAGE: 2,
}


@dataclass
class RecommendationSystem:
    """Handles to the shared state behind a running topology."""

    state: ModelState
    videos: Mapping[str, Video]
    users: Mapping[str, User] = field(default_factory=dict)
    variant: ModelVariant = COMBINE_MODEL
    clock: Clock = field(default_factory=SystemClock)
    obs: "Observability | None" = None

    def __post_init__(self) -> None:
        # The topology's state, built once: the bolts and the serving view
        # share these handles, and ComputeMF takes its (r, w) extraction
        # and Eq. 8 from this trainer.
        self._recommender = RealtimeRecommender(
            self.videos,
            users=self.users,
            variant=self.variant,
            clock=self.clock,
            state=self.state,
            enable_demographic=False,
            obs=self.obs,
        )
        self.model = self._recommender.model
        self.history = self._recommender.history
        self.table = self._recommender.table
        self.trainer = self._recommender.trainer

    def serving_recommender(self) -> RealtimeRecommender:
        """The request-serving view over the topology's learned state.

        Shares the model, history and similar-video table the bolts
        write, so everything the topology has processed is immediately
        visible.  Use its :meth:`recommend` only — feeding actions through
        both the topology and the recommender would train twice.
        """
        return self._recommender


def build_recommendation_topology(
    source: Iterable[str | UserAction],
    videos: Mapping[str, Video],
    users: Mapping[str, User] | None = None,
    variant: ModelVariant = COMBINE_MODEL,
    clock: Clock | None = None,
    state: ModelState | None = None,
    parallelism: Mapping[str, int] | None = None,
    obs: "Observability | None" = None,
) -> tuple[Topology, RecommendationSystem]:
    """Assemble the paper's topology over one shared model state.

    Returns the built topology (run it with a
    :class:`~repro.storm.LocalExecutor` or
    :class:`~repro.storm.ThreadedExecutor`) and the
    :class:`RecommendationSystem` handles for inspecting state and serving
    requests.
    """
    system = RecommendationSystem(
        state=state if state is not None else ModelState(),
        videos=videos,
        users=users or {},
        variant=variant,
        clock=clock or SystemClock(),
        obs=obs,
    )
    workers = dict(DEFAULT_PARALLELISM)
    workers.update(parallelism or {})

    builder = TopologyBuilder()
    shared_source = SharedSource(source)
    builder.set_spout(
        SPOUT,
        lambda: ActionSpout(shared_source),
        parallelism=workers[SPOUT],
    )
    builder.set_bolt(
        USER_HISTORY,
        lambda: UserHistoryBolt(system.history),
        parallelism=workers[USER_HISTORY],
    ).fields_grouping(SPOUT, ["user"])
    builder.set_bolt(
        COMPUTE_MF,
        lambda: ComputeMFBolt(system.trainer),
        parallelism=workers[COMPUTE_MF],
    ).fields_grouping(SPOUT, ["user"])
    mf_storage = builder.set_bolt(
        MF_STORAGE,
        lambda: MFStorageBolt(system.model),
        parallelism=workers[MF_STORAGE],
    )
    mf_storage.fields_grouping(COMPUTE_MF, ["kind", "key"], stream="user_vec")
    mf_storage.fields_grouping(COMPUTE_MF, ["kind", "key"], stream="video_vec")
    builder.set_bolt(
        GET_ITEM_PAIRS,
        lambda: GetItemPairsBolt(system.history),
        parallelism=workers[GET_ITEM_PAIRS],
    ).fields_grouping(SPOUT, ["user"])
    builder.set_bolt(
        ITEM_PAIR_SIM,
        lambda: ItemPairSimBolt(system.table),
        parallelism=workers[ITEM_PAIR_SIM],
    ).fields_grouping(GET_ITEM_PAIRS, ["pair"], stream="pairs")
    builder.set_bolt(
        RESULT_STORAGE,
        lambda: ResultStorageBolt(system.table),
        parallelism=workers[RESULT_STORAGE],
    ).fields_grouping(ITEM_PAIR_SIM, ["video"], stream="sims")

    return builder.build(), system
