"""Common interface for all recommenders compared in the experiments.

The A/B harness and the offline protocol drive every method — the paper's
``rMF`` and the production comparators of §6.2 — through this minimal
duck-typed surface, mirroring how live traffic is diverted to arms that
differ only in the backing model.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..data.schema import UserAction


@runtime_checkable
class Recommender(Protocol):
    """Anything that can ingest actions and serve top-N lists."""

    def observe(self, action: UserAction) -> None:
        """Ingest one user action (may be a no-op for batch models)."""
        ...  # pragma: no cover - protocol body

    def recommend_ids(
        self,
        user_id: str,
        current_video: str | None = None,
        n: int | None = None,
        now: float | None = None,
    ) -> list[str]:
        """Serve a top-``n`` recommendation list of video ids."""
        ...  # pragma: no cover - protocol body
