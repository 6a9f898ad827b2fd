"""Multi-objective loss: task negative log-likelihood plus an alignment term.

The combined loss is the convex combination

    combined = (1 - alpha) * l_target + alpha * l_align

where ``l_target`` scores the reference response and ``l_align`` scores the
kept unsupervised responses. When a sample has no alignment signal the
combined loss is exactly the target loss, not a down-weighted copy of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, kw_only=True)
class LossConfig:
    """Weighting between the target and alignment objectives."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"LossConfig: alpha must be in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-sample loss terms; ``l_align`` is None when nothing aligned."""

    l_target: float
    l_align: float | None
    combined: float
    alpha: float


def loss_term_weights(config: LossConfig, align_present: bool) -> tuple[float, float]:
    """Weights (target, align) applied to the two loss terms and their gradients."""
    if not align_present:
        return 1.0, 0.0
    return 1.0 - config.alpha, config.alpha


def combined_loss(
    l_target: float, l_align: float | None, config: LossConfig
) -> LossBreakdown:
    """Convex combination of the two loss terms.

    At alpha 0 or 1 the result equals the corresponding term exactly; for
    interior alpha the result is nudged into [min, max] of the two terms so
    the convexity bound survives floating-point rounding.
    """
    if not math.isfinite(l_target):
        raise ValueError(f"combined_loss: non-finite l_target {l_target}")
    if l_align is None:
        return LossBreakdown(l_target, None, l_target, config.alpha)
    if not math.isfinite(l_align):
        raise ValueError(f"combined_loss: non-finite l_align {l_align}")
    alpha = config.alpha
    combined = (1.0 - alpha) * l_target + alpha * l_align
    low, high = min(l_target, l_align), max(l_target, l_align)
    combined = min(max(combined, low), high)
    return LossBreakdown(l_target, l_align, combined, alpha)

