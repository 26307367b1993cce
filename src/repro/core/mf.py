"""Biased matrix factorization (paper §3.1).

Implements the prediction rule of Eq. 2::

    r_hat(u, i) = mu + b_u + b_i + x_u . y_i

with SGD updates in the direction opposite the gradient of the regularized
squared error (Eq. 3).  Parameters live in the model's
:class:`~repro.core.state.ModelState` — the stand-in for the production
system's key-value storage (§5.1) — so the Figure 2 topology can split
*computing* an update (``ComputeMF``) from *storing* it (``MFStorage``).

There is one parameter layout (DESIGN.md "Parameter layout"): a
:class:`~repro.core.arena.FactorArena` per entity kind (``state.users`` /
``state.videos``, next to the ``mu`` accumulator ``state.mu``), so batch
reads are contiguous gathers and :meth:`MFModel.predict_many` is one
matmul.  A checkpoint pickles the state (``repro.reliability``).  The
arithmetic is checked against the scalar oracle in ``tests/reference``.

Two deliberate deviations from the paper's text, both documented in
DESIGN.md:

* Eq. 5 as printed updates ``x_u`` by ``eta * (e * x_u - lambda * x_u)``,
  which never mixes user and item factors and therefore cannot learn
  interactions; we use the standard SGD form ``x_u += eta * (e * y_i -
  lambda * x_u)`` (and symmetrically for ``y_i``), which is what the cited
  optimization actually is.
* The global average ``mu`` is maintained as a running mean over *all*
  observed ratings including zero-rated impressions.  With positive-only
  updates a ratings-only mean degenerates to exactly 1 and the error
  vanishes; counting impressions keeps ``mu`` at the empirical positive
  rate, preserving Eq. 2's interpretation of ``mu`` as the overall average.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

import numpy as np

from ..config import MFConfig
from ..errors import ModelError
from ..hashing import stable_hash
from .arena import FactorArena
from .state import ModelState

_KINDS = ("user", "video")
_KIND, _VECTOR, _SHAPE = itemgetter(0), itemgetter(2), attrgetter("shape")


@dataclass(frozen=True, slots=True)
class MFUpdate:
    """The freshly computed parameters for one ``(user, video)`` SGD step.

    This is the message ``ComputeMF`` sends to ``MFStorage`` in the Figure 2
    topology: new vectors plus bookkeeping.  Applying it writes the four
    parameters back to the arenas.
    """

    user_id: str
    video_id: str
    x_u: np.ndarray
    y_i: np.ndarray
    b_u: float
    b_i: float
    error: float
    eta: float


def _check_eta(eta: float) -> None:
    if eta <= 0:
        raise ModelError(f"learning rate must be positive, got {eta}")


def _sgd_update(
    user_id: str,
    video_id: str,
    x_u: np.ndarray,
    y_i: np.ndarray,
    b_u: float,
    b_i: float,
    mu: float,
    rating: float,
    eta: float,
    lam: float,
) -> MFUpdate:
    """Eq. 4's error and the (corrected) Eq. 5 step, all four new
    parameters computed from the *old* ones.

    The one place the update is written: the per-action and the
    micro-batched paths both call it, which is what keeps them
    byte-identical.
    """
    e = rating - (mu + b_u + b_i + float(x_u @ y_i))
    return MFUpdate(
        user_id=user_id,
        video_id=video_id,
        x_u=x_u + eta * (e * y_i - lam * x_u),
        y_i=y_i + eta * (e * x_u - lam * y_i),
        b_u=b_u + eta * (e - lam * b_u),
        b_i=b_i + eta * (e - lam * b_i),
        error=e,
        eta=eta,
    )


class _KindRecords:
    """One kind's records of a mixed ``(kind, id, vector, bias)`` batch: a
    sized, re-iterable view, so the arena reads the batch's own tuples
    without a per-kind copy of it."""

    def __init__(self, items: Sequence[tuple], kind: str, count: int) -> None:
        self._items, self._kind, self._count = items, kind, count

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        items = self._items
        if self._count == len(items):
            return iter(items)
        return compress(items, map(self._kind.__eq__, map(_KIND, items)))


class MFBatchSession:
    """A read-through overlay for micro-batched SGD.

    Prefetches every touched vector and bias with batch reads, replays
    :meth:`MFModel.sgd_step` math through the overlay (each step reads the
    previous step's in-overlay values — exactly what the sequential path
    reads from the arenas), and commits all dirty parameters in one batch
    write plus one atomic ``mu`` fold.  The per-step arithmetic is
    byte-identical to calling :meth:`MFModel.observe_rating` /
    :meth:`MFModel.sgd_step` per action; only the number of arena
    operations changes.

    Not thread-safe; one session per worker per batch (the same ownership
    rule fields grouping gives the bolts).
    """

    def __init__(
        self,
        model: "MFModel",
        user_ids: Iterable[str] = (),
        video_ids: Iterable[str] = (),
    ) -> None:
        self._model = model
        self._vectors: dict[tuple[str, str], np.ndarray | None] = {}
        self._biases: dict[tuple[str, str], float] = {}
        self._dirty: dict[tuple[str, str], None] = {}  # first-write order
        self._prefetch("user", list(dict.fromkeys(user_ids)))
        self._prefetch("video", list(dict.fromkeys(video_ids)))
        total, count = model.state.mu
        self._mu_total = float(total)
        self._mu_count = int(count)
        self._mu_ratings: list[float] = []

    def _prefetch(self, kind: str, entity_ids: list[str]) -> None:
        if not entity_ids:
            return
        arena = self._model._arena(kind)
        vectors = arena.vectors_many(entity_ids)
        biases = arena.biases_array(entity_ids)
        for entity_id, vector, bias in zip(entity_ids, vectors, biases):
            self._vectors[(kind, entity_id)] = vector
            self._biases[(kind, entity_id)] = float(bias)

    def _vector(self, kind: str, entity_id: str) -> np.ndarray | None:
        key = (kind, entity_id)
        if key not in self._vectors:
            self._prefetch(kind, [entity_id])
        return self._vectors[key]

    def _bias(self, kind: str, entity_id: str) -> float:
        key = (kind, entity_id)
        if key not in self._biases:
            self._prefetch(kind, [entity_id])
        return self._biases[key]

    def _write(
        self, kind: str, entity_id: str, vector: np.ndarray, bias: float
    ) -> None:
        key = (kind, entity_id)
        self._vectors[key] = vector
        self._biases[key] = bias
        self._dirty.setdefault(key)

    @property
    def mu(self) -> float:
        return self._mu_total / self._mu_count if self._mu_count else 0.0

    def observe_rating(self, rating: float) -> None:
        """Overlay twin of :meth:`MFModel.observe_rating` (same fold order)."""
        self._mu_total += rating
        self._mu_count += 1
        self._mu_ratings.append(rating)

    def sgd_step(
        self, user_id: str, video_id: str, rating: float, eta: float
    ) -> MFUpdate:
        """One SGD step through the overlay; identical math to the model's."""
        _check_eta(eta)
        model = self._model
        x_u = self._vector("user", user_id)
        if x_u is None:
            x_u = model._init_vector("user", user_id)
        y_i = self._vector("video", video_id)
        if y_i is None:
            y_i = model._init_vector("video", video_id)
        update = _sgd_update(
            user_id,
            video_id,
            x_u,
            y_i,
            self._bias("user", user_id),
            self._bias("video", video_id),
            self.mu,
            rating,
            eta,
            model.config.lam,
        )
        self._write("user", user_id, update.x_u, update.b_u)
        self._write("video", video_id, update.y_i, update.b_i)
        return update

    def commit(self) -> None:
        """Write all dirty parameters and the ``mu`` delta to the state.

        Parameters go out as one batch per kind; ``mu`` is folded with one
        atomic update that replays the session's ratings in order, so
        concurrent writers (other workers' commits) are never overwritten
        and a single-rating batch is exactly the sequential code path.
        """
        self._model.put_params_many(
            [(*key, self._vectors[key], self._biases[key]) for key in self._dirty]
        )
        self._dirty.clear()
        self._model._mu_fold(self._mu_ratings)
        self._mu_ratings.clear()


class MFModel:
    """Biased MF model over a :class:`ModelState`, with per-entity lazy
    initialisation.

    New user/video vectors are initialised deterministically from the
    entity id (seed XOR stable hash), so initialisation is idempotent: any
    worker that first touches an entity produces the same vector.
    """

    def __init__(
        self,
        config: MFConfig | None = None,
        state: ModelState | None = None,
    ) -> None:
        self.config = config or MFConfig()
        self.state = state if state is not None else ModelState(self.config.f)
        if self.state.f != self.config.f:
            raise ValueError(
                f"state's arenas have f={self.state.f}, config f={self.config.f}"
            )

    def _arena(self, kind: str) -> FactorArena:
        """The state's arena of ``kind``, read on every access so a
        restored state is seen."""
        return self.state.users if kind == "user" else self.state.videos

    # ------------------------------------------------------------------
    # Global average
    # ------------------------------------------------------------------

    def _mu_fold(self, ratings: Sequence[float]) -> None:
        """Fold observed ratings, in order, into the accumulator; the
        caller may clear ``ratings`` once this returns."""
        if not ratings:
            return
        state = self.state
        with state.mu_lock:
            total, count = state.mu
            for rating in ratings:
                total = total + rating
                count = count + 1
            state.mu = (total, count)

    @property
    def mu(self) -> float:
        """The running overall average rating (Eq. 2's ``mu``)."""
        total, count = self.state.mu
        return total / count if count else 0.0

    def observe_rating(self, rating: float) -> None:
        """Fold one observed rating (including zeros) into ``mu``."""
        self._mu_fold((rating,))

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------

    def _init_vector(self, kind: str, entity_id: str) -> np.ndarray:
        rng = np.random.default_rng(
            (self.config.seed << 32) ^ stable_hash((kind, entity_id))
        )
        return rng.normal(0.0, self.config.init_scale, self.config.f)

    def user_vector(self, user_id: str) -> np.ndarray | None:
        """Return ``x_u`` or ``None`` when the user is unknown."""
        return self.state.users.vector(user_id)

    def video_vector(self, video_id: str) -> np.ndarray | None:
        """Return ``y_i`` or ``None`` when the video is unknown."""
        return self.state.videos.vector(video_id)

    def video_vectors_many(
        self, video_ids: Sequence[str]
    ) -> list[np.ndarray | None]:
        """Batch :meth:`video_vector`: one arena read for the lot."""
        return self.state.videos.vectors_many(list(video_ids))

    def video_row_views(self, video_ids: list[str]) -> list[np.ndarray | None]:
        """Like :meth:`video_vectors_many`, as read-only views of the
        arena's rows instead of copies (:meth:`FactorArena.row_views`):
        for a caller that writes no factor while it reads them."""
        return self.state.videos.row_views(video_ids)

    def user_bias(self, user_id: str) -> float:
        return self.state.users.bias(user_id)

    def video_bias(self, video_id: str) -> float:
        return self.state.videos.bias(video_id)

    def ensure_user(self, user_id: str) -> np.ndarray:
        """Return ``x_u``, initialising it first for a new user
        (Algorithm 1 lines 3-5)."""
        return self.state.users.setdefault_vector(
            user_id, lambda: self._init_vector("user", user_id)
        )

    def ensure_video(self, video_id: str) -> np.ndarray:
        """Return ``y_i``, initialising it first for a new video
        (Algorithm 1 lines 6-8)."""
        return self.state.videos.setdefault_vector(
            video_id, lambda: self._init_vector("video", video_id)
        )

    @property
    def n_users(self) -> int:
        return len(self.state.users)

    @property
    def n_videos(self) -> int:
        return len(self.state.videos)

    def video_rows(
        self, dtype: type = np.float64
    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Row-aligned ``(ids, vectors, biases)`` of every learned video.

        Ids are sorted, so the row order is deterministic across runs
        and across checkpoint restore — the retrieval mirror's build
        (:meth:`repro.core.AnnIndex.build_from_model`) relies on this to
        make a rebuilt mirror identical to the original.  The arrays are
        fresh, in ``dtype``; the mirror keeps a float32 export as its own.
        """
        return self.state.videos.sorted_rows(dtype)

    # ------------------------------------------------------------------
    # Prediction (Eq. 2) and error (Eq. 4)
    # ------------------------------------------------------------------

    def predict(self, user_id: str, video_id: str) -> float:
        """Predicted preference ``r_hat`` of Eq. 2.

        Unknown users/videos contribute nothing beyond ``mu`` and the known
        side's bias — the cold-start prediction the demographic fallback
        compensates for (§5.2.1).
        """
        score = self.mu + self.user_bias(user_id) + self.video_bias(video_id)
        x_u = self.user_vector(user_id)
        y_i = self.video_vector(video_id)
        if x_u is not None and y_i is not None:
            score += float(x_u @ y_i)
        return score

    def predict_many(
        self, user_id: str, video_ids: list[str]
    ) -> np.ndarray:
        """Vectorized Eq. 2 over many candidate videos for one user.

        This is the "SORT&SELECT WITH User vector" stage of Figure 1: one
        batched bias fetch, one gather of the candidate vectors into an
        ``(n, f)`` matrix, one matmul.  Unknown videos contribute a zero
        row (and 0.0 bias), reproducing the scalar :meth:`predict`'s
        cold-start behaviour; the float op order per candidate —
        ``(mu + b_u + b_i) + x_u . y_i`` — matches :meth:`predict`, so
        scores agree with the scalar loop to within 1 ULP (the matmul's
        BLAS accumulation order inside the dot product may differ from
        the scalar ``@``).
        """
        base = self.mu + self.user_bias(user_id)
        videos = self.state.videos
        scores = base + videos.biases_array(video_ids)
        x_u = self.user_vector(user_id)
        if x_u is not None and len(video_ids):
            matrix = videos.vectors_matrix(video_ids)
            scores = scores + matrix @ x_u
        return scores

    def error(self, user_id: str, video_id: str, rating: float) -> float:
        """Prediction error ``e_ui`` of Eq. 4."""
        return rating - self.predict(user_id, video_id)

    # ------------------------------------------------------------------
    # SGD (Eq. 5, corrected; Algorithm 1 lines 9-14)
    # ------------------------------------------------------------------

    def compute_update(
        self,
        user_id: str,
        video_id: str,
        rating: float,
        eta: float,
        persist_init: bool = True,
    ) -> MFUpdate:
        """Compute (without storing) one SGD step's new parameters.

        Initialises vectors for new entities.  ``eta`` is the per-action
        learning rate the adjustable strategy supplies (Eq. 8).  With
        ``persist_init=False`` new-entity vectors are derived (they are a
        deterministic function of the id) but *not* written — the topology's
        ``ComputeMF`` bolt uses this so that only ``MFStorage`` ever writes
        parameters — and each arena is read once, vector and bias together.
        """
        _check_eta(eta)
        if persist_init:
            self.ensure_user(user_id)
            self.ensure_video(video_id)
        state = self.state
        user = state.users.row(user_id)
        x_u, b_u = (
            (self._init_vector("user", user_id), 0.0) if user is None else user
        )
        video = state.videos.row(video_id)
        y_i, b_i = (
            (self._init_vector("video", video_id), 0.0)
            if video is None
            else video
        )
        return _sgd_update(
            user_id,
            video_id,
            x_u,
            y_i,
            b_u,
            b_i,
            self.mu,
            rating,
            eta,
            self.config.lam,
        )

    def put_user(self, user_id: str, x_u: np.ndarray, b_u: float) -> None:
        """Write one user's parameters (the ``MFStorage`` user path)."""
        self.state.users.put(user_id, x_u, b_u)

    def put_video(self, video_id: str, y_i: np.ndarray, b_i: float) -> None:
        """Write one video's parameters (the ``MFStorage`` video path)."""
        self.state.videos.put(video_id, y_i, b_i)

    def put_params_many(
        self, items: Sequence[tuple[str, str, np.ndarray, float]]
    ) -> None:
        """Batch parameter write: ``(kind, id, vector, bias)`` records.

        The :meth:`MFBatchSession.commit` path and the bulk load of a
        catalog: all user rows go out in one batch write, all video rows
        in another, each streamed from ``items`` with no per-kind copy.
        Within a kind, later records win (same as sequential puts).  All
        or nothing: every record's kind and shape is checked, by passes
        that run per record in C, before either arena is written.
        """
        counts = Counter(map(_KIND, items))
        unknown = counts.keys() - _KINDS
        if unknown:
            raise ModelError(f"unknown parameter kind {unknown.pop()!r}")
        try:
            shapes = set(map(_SHAPE, map(_VECTOR, items)))
        except AttributeError:  # a vector given as a list
            shapes = set(map(np.shape, map(_VECTOR, items)))
        shapes.discard((self.config.f,))
        if shapes:
            raise ValueError(
                f"vector shape {shapes.pop()} does not match f={self.config.f}"
            )
        for kind, count in counts.items():
            self._arena(kind).put_many(_KindRecords(items, kind, count))

    def apply_update(self, update: MFUpdate) -> None:
        """Write one computed step's parameters back to the arenas.

        In the topology this is ``MFStorage``'s job; fields grouping
        guarantees a single writer per key so the puts need no cross-key
        transaction.
        """
        state = self.state
        state.users.put(update.user_id, update.x_u, update.b_u)
        state.videos.put(update.video_id, update.y_i, update.b_i)

    def sgd_step(
        self, user_id: str, video_id: str, rating: float, eta: float
    ) -> MFUpdate:
        """Compute and immediately apply one SGD step; return it.

        One read and one write of each arena: a new entity's initial
        vector is derived, not stored, and its row is interned by the
        step's own write — the same row order as writing it first.
        """
        update = self.compute_update(
            user_id, video_id, rating, eta, persist_init=False
        )
        self.apply_update(update)
        return update

    def batch_session(
        self,
        user_ids: Iterable[str] = (),
        video_ids: Iterable[str] = (),
    ) -> MFBatchSession:
        """Open a micro-batch overlay prefetched for the given entities.

        Callers run :meth:`MFBatchSession.observe_rating` /
        :meth:`MFBatchSession.sgd_step` per action in stream order and
        :meth:`MFBatchSession.commit` once; the result is byte-identical
        to the sequential per-action methods.
        """
        return MFBatchSession(self, user_ids, video_ids)
