"""Loss terms, the alpha-weighted combination, and its algebraic properties."""
from __future__ import annotations

import random

import pytest

from posdebias.objective import (
    LossConfig,
    combined_loss,
    loss_term_weights,
)


class TestLossConfig:
    def test_bounds(self):
        LossConfig(alpha=0.0)
        LossConfig(alpha=1.0)
        with pytest.raises(ValueError, match="alpha"):
            LossConfig(alpha=-0.01)
        with pytest.raises(ValueError, match="alpha"):
            LossConfig(alpha=1.01)


class TestCombinedLoss:
    def test_worked_example(self):
        # frozen: (1 - 0.2) * 2.0 + 0.2 * 4.0 = 2.4
        breakdown = combined_loss(2.0, 4.0, LossConfig(alpha=0.2))
        assert breakdown.combined == pytest.approx(2.4, abs=1e-12)
        assert breakdown.l_target == 2.0
        assert breakdown.l_align == 4.0
        assert breakdown.alpha == 0.2

    def test_endpoints_exact(self):
        assert combined_loss(3.7, 9.1, LossConfig(alpha=0.0)).combined == 3.7
        assert combined_loss(3.7, 9.1, LossConfig(alpha=1.0)).combined == 9.1

    def test_missing_align_term_passes_target_through(self):
        # With no alignment signal the loss is the target loss itself, not a
        # (1 - alpha)-scaled copy.
        breakdown = combined_loss(3.7, None, LossConfig(alpha=0.2))
        assert breakdown.combined == 3.7
        assert breakdown.l_align is None

    def test_interior_formula(self):
        rng = random.Random(2)
        for _ in range(200):
            l_t = rng.uniform(0, 10)
            l_a = rng.uniform(0, 10)
            alpha = rng.random()
            got = combined_loss(l_t, l_a, LossConfig(alpha=alpha)).combined
            assert got == pytest.approx((1 - alpha) * l_t + alpha * l_a, abs=1e-12)

    def test_convexity_bound(self):
        rng = random.Random(4)
        for _ in range(200):
            l_t = rng.uniform(0, 100)
            l_a = rng.uniform(0, 100)
            alpha = rng.random()
            got = combined_loss(l_t, l_a, LossConfig(alpha=alpha)).combined
            assert min(l_t, l_a) <= got <= max(l_t, l_a)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="l_target"):
            combined_loss(float("nan"), 1.0, LossConfig())
        with pytest.raises(ValueError, match="l_align"):
            combined_loss(1.0, float("inf"), LossConfig())

    def test_term_weights(self):
        assert loss_term_weights(LossConfig(alpha=0.2), align_present=True) == (0.8, 0.2)
        assert loss_term_weights(LossConfig(alpha=0.2), align_present=False) == (1.0, 0.0)

