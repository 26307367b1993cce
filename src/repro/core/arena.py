"""Contiguous factor storage for the MF model.

One store entry per vector (the per-key layout this replaced, DESIGN.md
"Removed: per-key ``kv`` layout") makes every ``predict_many`` pay one dict
lookup *and* one small-array dispatch per candidate.  A
:class:`FactorArena` instead interns entity ids to rows of one growable
``(capacity, f)`` float64 matrix (plus a parallel bias vector), so batch
reads become numpy gathers and scoring a candidate set is a single matmul.

One arena holds one entity kind (users or videos).  It lives as a single
value inside the model's KV namespace, which keeps the rest of the system
honest: checkpoints capture it through the ordinary
``snapshot_entries``/``restore_entries`` path (one entry instead of
thousands, no per-key loop), fault injection and instrumentation wrappers
see every arena access as a normal store operation, and a recovered store
drops in transparently.

Thread safety: all methods take the arena's own lock, and pickling goes
through :meth:`__getstate__`, which copies the compacted arrays under that
lock — a checkpoint taken while a writer is mid-batch sees a consistent
row set.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

import numpy as np


class FactorArena:
    """Interned ``id -> (vector row, bias)`` storage over contiguous arrays.

    Rows are assigned in first-touch order and never move; growth doubles
    the capacity and copies (amortised O(1) per insert).  A deleted id
    keeps its row; membership queries and counts follow the *vector*:
    ``id in arena`` means "has a learned vector".
    """

    def __init__(self, f: int, initial_capacity: int = 64) -> None:
        if f < 1:
            raise ValueError(f"factor dimensionality must be >= 1, got {f}")
        if initial_capacity < 1:
            raise ValueError(
                f"initial_capacity must be >= 1, got {initial_capacity}"
            )
        self.f = f
        self._rows: dict[str, int] = {}
        self._ids: list[str] = []
        self._vecs = np.zeros((initial_capacity, f), dtype=np.float64)
        self._biases = np.zeros(initial_capacity, dtype=np.float64)
        self._has_vec = np.zeros(initial_capacity, dtype=bool)
        self._n_vec = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------

    def _grow(self, need: int) -> None:
        capacity = len(self._biases)
        if need <= capacity:
            return
        new_capacity = max(capacity * 2, need)
        for name in ("_vecs", "_biases", "_has_vec"):
            old = getattr(self, name)
            shape = (new_capacity,) + old.shape[1:]
            fresh = np.zeros(shape, dtype=old.dtype)
            fresh[: len(self._ids)] = old[: len(self._ids)]
            setattr(self, name, fresh)

    def _intern(self, entity_id: str) -> int:
        row = self._rows.get(entity_id)
        if row is None:
            row = len(self._ids)
            self._grow(row + 1)
            self._rows[entity_id] = row
            self._ids.append(entity_id)
        return row

    def _check_dim(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.f,):
            raise ValueError(
                f"vector shape {vector.shape} does not match arena f={self.f}"
            )
        return vector

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of entities with a learned vector."""
        with self._lock:
            return self._n_vec

    def __contains__(self, entity_id: str) -> bool:
        with self._lock:
            row = self._rows.get(entity_id)
            return row is not None and bool(self._has_vec[row])

    def ids(self) -> list[str]:
        """Ids with a vector, in first-touch order."""
        with self._lock:
            return [
                entity_id
                for entity_id in self._ids
                if self._has_vec[self._rows[entity_id]]
            ]

    def vector(self, entity_id: str) -> np.ndarray | None:
        """A copy of the entity's vector, or ``None`` when unlearned.

        A copy, so a vector handed out earlier does not change under the
        caller when training continues.
        """
        with self._lock:
            row = self._rows.get(entity_id)
            if row is None or not self._has_vec[row]:
                return None
            return self._vecs[row].copy()

    def bias(self, entity_id: str, default: float = 0.0) -> float:
        with self._lock:
            row = self._rows.get(entity_id)
            return default if row is None else float(self._biases[row])

    def vectors_many(self, entity_ids: list[str]) -> list[np.ndarray | None]:
        """Per-id vector copies (``None`` for unlearned), one lock pass."""
        with self._lock:
            out: list[np.ndarray | None] = []
            for entity_id in entity_ids:
                row = self._rows.get(entity_id)
                if row is None or not self._has_vec[row]:
                    out.append(None)
                else:
                    out.append(self._vecs[row].copy())
            return out

    def vectors_matrix(self, entity_ids: list[str]) -> np.ndarray:
        """An ``(n, f)`` gather with zero rows for unlearned ids."""
        n = len(entity_ids)
        with self._lock:
            idx = np.empty(n, dtype=np.int64)
            for position, entity_id in enumerate(entity_ids):
                row = self._rows.get(entity_id, -1)
                if row >= 0 and not self._has_vec[row]:
                    row = -1
                idx[position] = row
            out = self._vecs[np.where(idx >= 0, idx, 0)]
            out[idx < 0] = 0.0
            return out

    def biases_array(self, entity_ids: list[str]) -> np.ndarray:
        """An ``(n,)`` gather of biases with 0.0 for unknown ids."""
        n = len(entity_ids)
        with self._lock:
            idx = np.fromiter(
                (self._rows.get(entity_id, -1) for entity_id in entity_ids),
                dtype=np.int64,
                count=n,
            )
            out = self._biases[np.where(idx >= 0, idx, 0)]
            out[idx < 0] = 0.0
            return out

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def put(self, entity_id: str, vector: np.ndarray, bias: float) -> None:
        """Write vector and bias together (the common SGD-commit shape)."""
        vector = self._check_dim(vector)
        with self._lock:
            row = self._intern(entity_id)
            self._vecs[row] = vector
            self._biases[row] = bias
            if not self._has_vec[row]:
                self._has_vec[row] = True
                self._n_vec += 1

    def put_many(
        self, items: Iterable[tuple[str, np.ndarray, float]]
    ) -> None:
        """Apply many ``(id, vector, bias)`` writes under one lock pass."""
        with self._lock:
            for entity_id, vector, bias in items:
                vector = self._check_dim(vector)
                row = self._intern(entity_id)
                self._vecs[row] = vector
                self._biases[row] = bias
                if not self._has_vec[row]:
                    self._has_vec[row] = True
                    self._n_vec += 1

    def setdefault_vector(
        self, entity_id: str, factory
    ) -> np.ndarray:
        """Return the entity's vector, installing ``factory()`` if unlearned."""
        with self._lock:
            row = self._intern(entity_id)
            if not self._has_vec[row]:
                self._vecs[row] = self._check_dim(factory())
                self._has_vec[row] = True
                self._n_vec += 1
            return self._vecs[row].copy()

    def delete(self, entity_id: str) -> bool:
        """Forget an entity's vector (the row itself is retained)."""
        with self._lock:
            row = self._rows.get(entity_id)
            if row is None or not self._has_vec[row]:
                return False
            self._has_vec[row] = False
            self._vecs[row] = 0.0
            self._biases[row] = 0.0
            self._n_vec -= 1
            return True

    # ------------------------------------------------------------------
    # Bulk export (save, checkpoint, retrieval mirror build)
    # ------------------------------------------------------------------

    def export_rows(
        self,
    ) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
        """Compacted copies of ``(ids, vectors, biases, has_vector)``.

        Row-aligned over *all* interned ids (bias-only rows included), so
        a consumer can reconstruct the arena exactly.
        """
        with self._lock:
            n = len(self._ids)
            return (
                list(self._ids),
                self._vecs[:n].copy(),
                self._biases[:n].copy(),
                self._has_vec[:n].copy(),
            )

    def items(self) -> Iterator[tuple[str, np.ndarray, float]]:
        """Iterate ``(id, vector copy, bias)`` for learned ids."""
        ids, vecs, biases, has_vec = self.export_rows()
        for row, entity_id in enumerate(ids):
            if has_vec[row]:
                yield entity_id, vecs[row].copy(), float(biases[row])

    # ------------------------------------------------------------------
    # Pickle support (checkpointing)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        ids, vecs, biases, has_vec = self.export_rows()
        return {
            "f": self.f,
            "ids": ids,
            "vecs": vecs,
            "biases": biases,
            "has_vec": has_vec,
        }

    def __setstate__(self, state: dict) -> None:
        self.f = state["f"]
        self._ids = list(state["ids"])
        self._rows = {
            entity_id: row for row, entity_id in enumerate(self._ids)
        }
        n = max(len(self._ids), 1)
        self._vecs = np.zeros((n, self.f), dtype=np.float64)
        self._biases = np.zeros(n, dtype=np.float64)
        self._has_vec = np.zeros(n, dtype=bool)
        count = len(self._ids)
        self._vecs[:count] = state["vecs"]
        self._biases[:count] = state["biases"]
        self._has_vec[:count] = state["has_vec"]
        self._n_vec = int(np.count_nonzero(self._has_vec[:count]))
        self._lock = threading.RLock()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FactorArena(f={self.f}, interned={len(self._ids)}, "
            f"learned={self._n_vec})"
        )
