"""Contiguous factor storage for the MF model.

One store entry per vector (the per-key layout this replaced, DESIGN.md
"Removed: per-key ``kv`` layout") makes every ``predict_many`` pay one dict
lookup *and* one small-array dispatch per candidate.  A
:class:`FactorArena` instead interns entity ids to rows of one growable
``(capacity, f)`` float64 matrix (plus a parallel bias vector), so batch
reads become numpy gathers and scoring a candidate set is a single matmul.

One arena holds one entity kind (users or videos): it is one value of
the model's :class:`~repro.core.state.ModelState` (``users`` /
``videos``), pickled whole with it by a checkpoint.

Thread safety: all methods take the arena's own lock, and pickling goes
through :meth:`__getstate__`, which copies the compacted arrays under that
lock — a checkpoint taken while a writer is mid-batch sees a consistent
row set.  The lock separates two threads that share an arena: the two
``MFStorage`` workers of the threaded topology executor, which intern
rows (and grow the arrays) concurrently, and a request thread reading
rows while ``observe`` writes them on another
(``examples/serve_while_train.py``).
"""

from __future__ import annotations

import threading
from itertools import islice
from operator import itemgetter
from typing import Collection

import numpy as np

#: Rows :meth:`FactorArena.put_many` writes and :meth:`FactorArena.sorted_rows`
#: gathers per step: the scratch memory of either is one block.
_BLOCK = 4096

_ID, _VECTOR, _BIAS = itemgetter(-3), itemgetter(-2), itemgetter(-1)


class FactorArena:
    """Interned ``id -> (vector row, bias)`` storage over contiguous arrays.

    Rows are assigned in first-touch order and never move; growth doubles
    the capacity and copies (amortised O(1) per insert).  Every interned
    id has a learned vector: ``id in arena`` and ``len(arena)`` count rows.
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
        self._set_vecs(np.zeros((initial_capacity, f), dtype=np.float64))
        self._biases = np.zeros(initial_capacity, dtype=np.float64)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------

    def _set_vecs(self, vecs: np.ndarray) -> None:
        """Install the vector matrix and the read-only view of it that
        :meth:`row_views` indexes."""
        self._vecs = vecs
        self._readonly = vecs.view()
        self._readonly.flags.writeable = False

    def _grow(self, need: int) -> None:
        capacity = len(self._biases)
        if need <= capacity:
            return
        new_capacity = max(capacity * 2, need)
        n = len(self._ids)
        # One array at a time, so the old matrix is freed before the
        # new biases are allocated.
        vecs = np.zeros((new_capacity, self.f), dtype=np.float64)
        vecs[:n] = self._vecs[:n]
        self._set_vecs(vecs)
        biases = np.zeros(new_capacity, dtype=np.float64)
        biases[:n] = self._biases[:n]
        self._biases = biases

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

    def _gather(self, array: np.ndarray, entity_ids: list[str]) -> np.ndarray:
        """Rows of ``array`` for ``entity_ids``, zero for unknown ids
        (caller holds the lock)."""
        idx = np.fromiter(
            (self._rows.get(entity_id, -1) for entity_id in entity_ids),
            dtype=np.int64,
            count=len(entity_ids),
        )
        out = array[np.where(idx >= 0, idx, 0)]
        out[idx < 0] = 0.0
        return out

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of entities with a learned vector."""
        with self._lock:
            return len(self._ids)

    def __contains__(self, entity_id: str) -> bool:
        with self._lock:
            return entity_id in self._rows

    def vector(self, entity_id: str) -> np.ndarray | None:
        """A copy of the entity's vector, or ``None`` when unlearned.

        A copy, so a vector handed out earlier does not change under the
        caller when training continues.
        """
        with self._lock:
            row = self._rows.get(entity_id)
            return None if row is None else self._vecs[row].copy()

    def bias(self, entity_id: str, default: float = 0.0) -> float:
        with self._lock:
            row = self._rows.get(entity_id)
            return default if row is None else float(self._biases[row])

    def row(self, entity_id: str) -> tuple[np.ndarray, float] | None:
        """A copy of the entity's vector and its bias, or ``None`` when
        unlearned: an SGD step's whole read of one arena, one lock pass."""
        with self._lock:
            row = self._rows.get(entity_id)
            if row is None:
                return None
            return self._vecs[row].copy(), float(self._biases[row])

    def vectors_many(self, entity_ids: list[str]) -> list[np.ndarray | None]:
        """Per-id vector copies (``None`` for unlearned), one lock pass."""
        with self._lock:
            rows = [self._rows.get(entity_id) for entity_id in entity_ids]
            return [None if row is None else self._vecs[row].copy() for row in rows]

    def row_views(self, entity_ids: list[str]) -> list[np.ndarray | None]:
        """Per-id read-only views of the vector rows (``None`` for
        unlearned), one lock pass, nothing copied.

        A view shows later writes to its row (growth leaves it on the old,
        unchanged buffer), so the views may be read only while no thread
        writes the arena — the pair step of one engagement, inside
        ``observe``, which runs on one thread at a time.
        """
        with self._lock:
            rows, view = self._rows, self._readonly
            return [
                None if (row := rows.get(entity_id)) is None else view[row]
                for entity_id in entity_ids
            ]

    def vectors_matrix(self, entity_ids: list[str]) -> np.ndarray:
        """An ``(n, f)`` gather with zero rows for unlearned ids."""
        with self._lock:
            return self._gather(self._vecs, entity_ids)

    def biases_array(self, entity_ids: list[str]) -> np.ndarray:
        """An ``(n,)`` gather of biases with 0.0 for unknown ids."""
        with self._lock:
            return self._gather(self._biases, entity_ids)

    def sorted_rows(
        self, dtype: type = np.float64
    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Row-aligned ``(ids, vectors, biases)`` in ``dtype``, ids sorted.

        When the rows are already in sorted-id order (a catalog loaded in
        id order) the arrays are cast straight across; otherwise rows are
        gathered ``_BLOCK`` at a time into the returned arrays.  Either way
        the export costs its own bytes plus at most one block: a float32
        export never holds a float64 copy of the arena.
        """
        with self._lock:
            ids = sorted(self._ids)
            n = len(ids)
            vectors = np.empty((n, self.f), dtype=dtype)
            biases = np.empty(n, dtype=dtype)
            if ids == self._ids:
                vectors[:] = self._vecs[:n]
                biases[:] = self._biases[:n]
                return ids, vectors, biases
            for start in range(0, n, _BLOCK):
                block = ids[start : start + _BLOCK]
                rows = np.fromiter(
                    map(self._rows.__getitem__, block),
                    dtype=np.int64,
                    count=len(block),
                )
                vectors[start : start + len(block)] = self._vecs[rows]
                biases[start : start + len(block)] = self._biases[rows]
        return ids, vectors, biases

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

    def put_many(self, records: Collection[tuple]) -> None:
        """Apply many writes under one lock pass: records are tuples ending
        in ``(id, vector, bias)`` (the model's ``(kind, id, vector, bias)``
        records, read as they are), every vector's shape checked by the
        caller (:meth:`~repro.core.mf.MFModel.put_params_many`).

        The arrays grow once, by the records whose id is not stored yet.  A
        block of ``_BLOCK`` new, distinct ids is interned by one
        ``dict.update`` and copied into consecutive rows by one
        ``np.concatenate``; any other block takes its rows one id at a time,
        and of two records for one id the later wins.
        """
        with self._lock:
            rows, ids = self._rows, self._ids
            stored = sum(map(rows.__contains__, map(_ID, records))) if rows else 0
            self._grow(len(ids) + len(records) - stored)
            vecs, biases = self._vecs, self._biases
            it = iter(records)
            while block := list(islice(it, _BLOCK)):
                block_ids = list(map(_ID, block))
                vectors = list(map(_VECTOR, block))
                start, n = len(ids), len(block)
                fresh = dict(zip(block_ids, range(start, start + n)))
                if len(fresh) == n and rows.keys().isdisjoint(fresh):
                    rows.update(fresh)
                    ids.extend(block_ids)
                    np.concatenate(vectors, out=vecs[start : start + n].reshape(-1))
                    biases[start : start + n] = list(map(_BIAS, block))
                    continue
                last = {}  # row -> index of the block's last record for it
                for i, entity_id in enumerate(block_ids):
                    last[rows.setdefault(entity_id, len(ids))] = i
                    if len(rows) > len(ids):
                        ids.append(entity_id)
                picks = list(last.values())
                vecs[list(last)] = np.concatenate(vectors).reshape(n, -1)[picks]
                biases[list(last)] = [block[i][-1] for i in picks]

    def setdefault_vector(
        self, entity_id: str, factory
    ) -> np.ndarray:
        """Return the entity's vector, installing ``factory()`` if unlearned."""
        with self._lock:
            row = self._rows.get(entity_id)
            if row is None:
                vector = self._check_dim(factory())
                row = self._intern(entity_id)
                self._vecs[row] = vector
            return self._vecs[row].copy()

    # ------------------------------------------------------------------
    # Pickle support (checkpointing)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        with self._lock:
            n = len(self._ids)
            return {
                "f": self.f,
                "ids": list(self._ids),
                "vecs": self._vecs[:n].copy(),
                "biases": self._biases[:n].copy(),
            }

    def __setstate__(self, state: dict) -> None:
        ids, vecs, biases = state["ids"], state["vecs"], state["biases"]
        if "has_vec" in state:
            # Written before every row had a vector: the rows without one
            # were deleted (zero vector, zero bias), so drop them.
            keep = np.asarray(state["has_vec"], dtype=bool)
            ids = [entity_id for entity_id, kept in zip(ids, keep) if kept]
            vecs, biases = vecs[keep], biases[keep]
        self.f = state["f"]
        self._ids = list(ids)
        self._rows = {
            entity_id: row for row, entity_id in enumerate(self._ids)
        }
        n = max(len(self._ids), 1)
        self._set_vecs(np.zeros((n, self.f), dtype=np.float64))
        self._biases = np.zeros(n, dtype=np.float64)
        self._vecs[: len(self._ids)] = vecs
        self._biases[: len(self._ids)] = biases
        self._lock = threading.RLock()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FactorArena(f={self.f}, learned={len(self._ids)})"
