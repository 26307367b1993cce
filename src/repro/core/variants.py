"""The three experimental model variants of §6.1.2.

The paper's ablation compares three ways to consume implicit feedback:

* **BinaryModel** — binary ratings, fixed learning rate (confidence
  levels ignored);
* **ConfModel** — the confidence level *is* the rating, fixed learning
  rate (the naive approach the paper shows to be noise-sensitive);
* **CombineModel** — binary ratings with the confidence level driving an
  adjustable learning rate (Eq. 8): the paper's contribution.

Each variant is a frozen description consumed by
:class:`~repro.core.online.OnlineTrainer`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .feedback import RatingMode


@dataclass(frozen=True, slots=True)
class ModelVariant:
    """One configuration of (rating mode, adjustable learning rate)."""

    name: str
    rating_mode: RatingMode
    adjustable: bool


BINARY_MODEL = ModelVariant(
    name="BinaryModel", rating_mode=RatingMode.BINARY, adjustable=False
)
CONF_MODEL = ModelVariant(
    name="ConfModel", rating_mode=RatingMode.CONFIDENCE, adjustable=False
)
COMBINE_MODEL = ModelVariant(
    name="CombineModel", rating_mode=RatingMode.BINARY, adjustable=True
)

#: All variants in the order the paper's figures list them.
ALL_VARIANTS = (BINARY_MODEL, CONF_MODEL, COMBINE_MODEL)


#: Grid-searched online-update settings per variant (our Table 2 pass):
#: each variant gets the ``(eta0, alpha)`` that maximised its own recall@10
#: on the synthetic world, so the §6.1.2 comparison is fair to all three.
GRID_SEARCHED_RATES: dict[str, tuple[float, float]] = {
    BINARY_MODEL.name: (0.002, 0.0),
    CONF_MODEL.name: (0.002, 0.0),
    COMBINE_MODEL.name: (0.001, 0.002),
}


def grid_searched_rates(variant: ModelVariant) -> tuple[float, float]:
    """The tuned ``(eta0, alpha)`` for a variant (see GRID_SEARCHED_RATES)."""
    return GRID_SEARCHED_RATES[variant.name]
