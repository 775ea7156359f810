"""Pointwise loss evaluators: frozen examples and structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcbounds.losses import (
    LossFamily,
    eval_adversarial_zero_one,
    eval_margin_loss,
    eval_sup_loss,
    eval_zero_one,
    exponential,
    hinge,
    logistic,
    quadratic,
    rho_margin,
    sigmoid,
    sign,
    truncate,
)

ALL_LOSSES = [hinge(), logistic(), exponential(), quadratic(), sigmoid(1.0), rho_margin(1.0)]
CONVEX_LOSSES = [hinge(), logistic(), exponential(), quadratic()]


class TestPointwiseValues:
    def test_hinge_at_zero(self):
        assert eval_margin_loss(hinge(), 0.0) == 1.0

    def test_logistic_at_zero(self):
        assert eval_margin_loss(logistic(), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_rho_margin_clamps_past_margin(self):
        assert eval_margin_loss(rho_margin(1.0), 2.0) == 0.0

    def test_sigmoid_value(self):
        assert eval_margin_loss(sigmoid(1.0), 0.8) == pytest.approx(1.0 - math.tanh(0.8), abs=1e-15)

    def test_quadratic_is_truncated(self):
        assert eval_margin_loss(quadratic(), 1.5) == 0.0
        assert eval_margin_loss(quadratic(), 0.5) == pytest.approx(0.25)

    def test_logistic_stable_at_large_margins(self):
        assert eval_margin_loss(logistic(), 800.0) == 0.0
        val = eval_margin_loss(logistic(), -800.0)
        assert val == pytest.approx(800.0 / math.log(2.0), rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sigmoid(0.0)
        with pytest.raises(ValueError):
            rho_margin(-1.0)


class TestZeroOne:
    def test_zero_score_predicts_plus_one(self):
        assert sign(0.0) == 1
        assert eval_zero_one(0.0, 1) == 0
        assert eval_zero_one(0.0, -1) == 1

    def test_negative_score(self):
        assert eval_zero_one(-0.3, -1) == 0
        assert eval_zero_one(-0.3, 1) == 1

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            eval_zero_one(0.1, 0)


class TestSupLoss:
    def test_rho_margin_worst_case(self):
        assert eval_sup_loss(rho_margin(1.0), 1, 0.0, 0.5) == 1.0

    def test_hinge_negative_interval(self):
        # y = -1 takes Phi(-h_hi) = Phi(1) = 0
        assert eval_sup_loss(hinge(), -1, -2.0, -1.0) == 0.0

    def test_sigmoid_straddling_interval(self):
        got = eval_sup_loss(sigmoid(1.0), 1, -0.1, 0.1)
        assert got == pytest.approx(1.0 - math.tanh(-0.1), abs=1e-15)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            eval_sup_loss(hinge(), 1, 0.5, 0.2)

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.label())
    def test_matches_grid_maximum_over_ball(self, loss):
        # 1-D hypothesis h(x) = w*x + b; worst case over |x - x0| <= gamma.
        rng = np.random.default_rng(11)
        for _ in range(25):
            w, b = rng.uniform(-2, 2), rng.uniform(-1, 1)
            x0, gamma = rng.uniform(-0.5, 0.5), rng.uniform(0.01, 0.4)
            y = int(rng.choice([-1, 1]))
            grid = np.linspace(x0 - gamma, x0 + gamma, 2001)
            grid_max = float(np.max(eval_margin_loss(loss, y * (w * grid + b))))
            h_lo = w * x0 - gamma * abs(w) + b
            h_hi = w * x0 + gamma * abs(w) + b
            assert eval_sup_loss(loss, y, h_lo, h_hi) == pytest.approx(grid_max, abs=1e-4)


class TestAdversarialZeroOne:
    def test_safe_interval(self):
        assert eval_adversarial_zero_one(0.1, 0.2, 1) == 0

    def test_sign_crossing_hits_both_labels(self):
        assert eval_adversarial_zero_one(-0.1, 0.1, 1) == 1
        assert eval_adversarial_zero_one(-0.1, 0.1, -1) == 1

    def test_negative_interval_safe_for_negative_label(self):
        assert eval_adversarial_zero_one(-0.2, -0.1, -1) == 0

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            eval_adversarial_zero_one(1.0, 0.0, 1)


class TestTruncate:
    def test_pass_through(self):
        assert truncate(0.5, 0.0) == 0.5

    def test_strict_inequality_at_threshold(self):
        assert truncate(0.5, 0.5) == 0.0

    def test_above_threshold(self):
        assert truncate(0.6, 0.5) == 0.6

    def test_eps_range_validated(self):
        with pytest.raises(ValueError):
            truncate(0.5, 1.5)


class TestInvariants:
    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.label())
    def test_monotone_nonincreasing(self, loss):
        rng = np.random.default_rng(5)
        a = np.sort(rng.uniform(-10, 10, 500))
        vals = eval_margin_loss(loss, a)
        assert np.all(np.diff(vals) <= 1e-12)

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.label())
    def test_nonnegative(self, loss):
        rng = np.random.default_rng(6)
        assert np.all(eval_margin_loss(loss, rng.uniform(-20, 20, 500)) >= 0.0)

    @given(a=st.floats(-20, 20), b=st.floats(-20, 20))
    @example(a=-20.0, b=-19.999999999999996)  # exp(20) ~ 4.9e8: mid - chord = 8.3e-7
    @settings(max_examples=300, deadline=None)
    def test_midpoint_convexity_of_convex_families(self, a, b):
        for loss in CONVEX_LOSSES:
            mid = eval_margin_loss(loss, (a + b) / 2.0)
            chord = 0.5 * (eval_margin_loss(loss, a) + eval_margin_loss(loss, b))
            assert mid <= chord + 1e-12 * max(1.0, abs(chord))

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.label())
    def test_dominates_zero_one(self, loss):
        # every family here has Phi(0) >= 1, so Phi(y*h) >= zero-one loss
        rng = np.random.default_rng(7)
        for _ in range(200):
            u = rng.uniform(-5, 5)
            y = int(rng.choice([-1, 1]))
            assert eval_margin_loss(loss, y * u) >= eval_zero_one(u, y) - 1e-12

    def test_sup_loss_dominates_adversarial_zero_one(self):
        rng = np.random.default_rng(8)
        for loss in ALL_LOSSES:
            lo = rng.uniform(-2, 2, 100)
            hi = lo + rng.uniform(0, 1, 100)
            for y in (-1, 1):
                sup_vals = eval_sup_loss(loss, np.full(100, y), lo, hi)
                adv = eval_adversarial_zero_one(lo, hi, np.full(100, y))
                assert np.all(sup_vals >= adv - 1e-12)


# The adversarial grid oracle bounds a block of (w, b) cells by the loss at
# the block's end columns and skips blocks that cannot hold the minimum.
# Its minimum is the whole grid's, bit for bit, only if the loss is
# non-increasing in floating point and a gathered subset of an array
# evaluates to the bits of the full array.
PREMISE_LOSSES = ALL_LOSSES + [sigmoid(1.3), rho_margin(0.8)]
DENSE = np.linspace(-40.0, 40.0, 2_000_001)


def _ulps_around(c, k=2000):
    """The 2k + 1 consecutive doubles centred on c > 0."""
    return (np.array([c]).view(np.int64) + np.arange(-k, k + 1)).view(float)


class TestFloatingPointPremises:
    @pytest.mark.parametrize("loss", PREMISE_LOSSES, ids=lambda l: l.label())
    def test_nonincreasing_on_a_dense_grid(self, loss):
        assert np.count_nonzero(np.diff(eval_margin_loss(loss, DENSE)) > 0.0) == 0

    # np.logaddexp steps up by one ulp between some inputs a few ulps apart
    # near a = -1/2, so the logistic family is left out at this scale: grid
    # columns that close together need B below ~1e-12
    @pytest.mark.parametrize(
        "loss", [l for l in PREMISE_LOSSES if l.family is not LossFamily.LOGISTIC], ids=lambda l: l.label()
    )
    @pytest.mark.parametrize("c", [0.5, 0.8, 1.0, 1.25, 2.0])
    def test_nonincreasing_ulp_by_ulp_near_the_kinks(self, loss, c):
        for a in (_ulps_around(c), -_ulps_around(c)[::-1]):
            assert np.count_nonzero(np.diff(eval_margin_loss(loss, a)) > 0.0) == 0

    @pytest.mark.parametrize("loss", PREMISE_LOSSES, ids=lambda l: l.label())
    def test_gathered_subset_keeps_the_bits(self, loss):
        full = eval_margin_loss(loss, DENSE)
        rng = np.random.default_rng(11)
        for size in (1, 7, 63, 64, 65, 1000, 126 * 64):
            idx = rng.integers(0, DENSE.size, size)
            for shape in [(size,), (size, 1)] + ([(-1, 64)] if size % 64 == 0 else []):
                got = eval_margin_loss(loss, DENSE[idx].reshape(shape))
                assert got.tobytes() == full[idx].tobytes()
