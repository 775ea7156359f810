"""Pointwise losses: frozen examples and structural invariants.

The zero-one, robust zero-one and worst-case margin losses of a linear
hypothesis are checked through ``bounds._score_kernel`` and
``bounds._loss_values``, the code that every risk, bound and sweep runs.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcbounds.bounds import _loss_values, _score_kernel
from hcbounds.hypotheses import LinearHypothesis
from hcbounds.losses import (
    ZERO_ONE,
    LossFamily,
    eval_margin_loss,
    exponential,
    hinge,
    logistic,
    quadratic,
    rho_margin,
    sigmoid,
)
from test_conditional import conditional_risk_zero_one, sign, truncate

ALL_LOSSES = [hinge(), logistic(), exponential(), quadratic(), sigmoid(1.0), rho_margin(1.0)]
CONVEX_LOSSES = [hinge(), logistic(), exponential(), quadratic()]


def _pointwise(loss, h, xs, y, gamma):
    """The loss of h at the points xs with label y, from the kernel: robust for gamma > 0."""
    return _loss_values(loss, *_score_kernel(h.w, h.b, xs, y, gamma))


def _zero_one(u, y):
    """Zero-one loss of the score u against label y, from the kernel."""
    return float(_pointwise(ZERO_ONE, LinearHypothesis(0.0, u), 0.0, y, 0.0))


def _on_interval(loss, y, lo, hi):
    """Worst-case loss against label y of a hypothesis whose scores over the
    ball are [lo, hi]: h = (1, (lo + hi)/2) around x = 0 with gamma = (hi - lo)/2."""
    h = LinearHypothesis(1.0, (lo + hi) / 2.0)
    return float(_pointwise(loss, h, 0.0, y, (hi - lo) / 2.0))


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
        # sigmoid(inf) evaluates to NaN at 0, and rho-margin(inf) has no inverse transform
        for value in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="requires a finite k > 0"):
                sigmoid(value)
            with pytest.raises(ValueError, match="requires a finite rho > 0"):
                rho_margin(value)


class TestZeroOne:
    def test_zero_score_predicts_plus_one(self):
        assert sign(0.0) == 1
        assert _zero_one(0.0, 1) == 0.0
        assert _zero_one(0.0, -1) == 1.0
        assert conditional_risk_zero_one(0.0, 0.3) == 0.7  # predicts +1: wrong with prob 1 - t

    def test_negative_score(self):
        assert _zero_one(-0.3, -1) == 0.0
        assert _zero_one(-0.3, 1) == 1.0

    def test_kernel_indicator_on_arrays(self):
        scores = np.array([-1.0, -0.0, 0.0, 1e-300, 2.0])
        for y in (-1, 1):
            err, arg = _score_kernel(1.0, 0.0, scores.copy(), y, 0.0)
            assert err.tolist() == [sign(u) != y for u in scores]
            assert np.array_equal(arg, y * scores)


class TestSupLoss:
    def test_rho_margin_worst_case(self):
        assert _on_interval(rho_margin(1.0), 1, 0.0, 0.5) == 1.0

    def test_hinge_negative_interval(self):
        # y = -1 takes Phi(-h_hi) = Phi(1) = 0
        assert _on_interval(hinge(), -1, -2.0, -1.0) == 0.0

    def test_sigmoid_straddling_interval(self):
        got = _on_interval(sigmoid(1.0), 1, -0.1, 0.1)
        assert got == pytest.approx(1.0 - math.tanh(-0.1), abs=1e-15)

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
            got = float(_pointwise(loss, LinearHypothesis(w, b), x0, y, gamma))
            # Phi(lo) for y = +1, Phi(-hi) for y = -1
            closed = eval_margin_loss(loss, h_lo if y > 0 else -h_hi)
            assert got == pytest.approx(closed, rel=1e-12, abs=1e-12)
            assert got == pytest.approx(grid_max, abs=1e-4)


class TestAdversarialZeroOne:
    def test_safe_interval(self):
        assert _on_interval(ZERO_ONE, 1, 0.1, 0.2) == 0.0

    def test_sign_crossing_hits_both_labels(self):
        assert _on_interval(ZERO_ONE, 1, -0.1, 0.1) == 1.0
        assert _on_interval(ZERO_ONE, -1, -0.1, 0.1) == 1.0

    def test_negative_interval_safe_for_negative_label(self):
        assert _on_interval(ZERO_ONE, -1, -0.2, -0.1) == 0.0

    def test_worst_case_score_of_zero_is_an_error(self):
        # lo = 0 exactly for y = +1, hi = 0 exactly for y = -1
        assert _on_interval(ZERO_ONE, 1, 0.0, 0.5) == 1.0
        assert _on_interval(ZERO_ONE, -1, -0.5, 0.0) == 1.0
        tiny = 2.0**-20  # [tiny, tiny + 0.5] is exact on the kernel's arithmetic
        assert _on_interval(ZERO_ONE, 1, tiny, tiny + 0.5) == 0.0
        assert _on_interval(ZERO_ONE, -1, -tiny - 0.5, -tiny) == 0.0


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
            assert eval_margin_loss(loss, y * u) >= _zero_one(u, y) - 1e-12

    def test_sup_loss_dominates_adversarial_zero_one(self):
        rng = np.random.default_rng(8)
        for loss in ALL_LOSSES:
            h = LinearHypothesis(rng.uniform(-3, 3), rng.uniform(-1, 1))
            xs = np.append(rng.uniform(-1, 1, 100), -h.b / h.w)  # a centre score of about 0
            gamma = rng.uniform(0.0, 0.5)
            for y in (-1, 1):
                sup_vals = _pointwise(loss, h, xs, y, gamma)
                adv = _pointwise(ZERO_ONE, h, xs, y, gamma)
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
    # near a = -1/2, so the logistic family is left out at this scale: (w, b)
    # grid cells that close together need x*W, B or gamma*W below ~1e-12
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


def _allocating_reference(loss, a):
    """Each family by the whole-array expression it had before the loss
    kernel took ``out``."""
    fam = loss.family
    if fam is LossFamily.HINGE:
        return np.maximum(0.0, 1.0 - a)
    if fam is LossFamily.LOGISTIC:
        return np.logaddexp(0.0, -a) / math.log(2.0)
    if fam is LossFamily.EXPONENTIAL:
        return np.exp(-a)
    if fam is LossFamily.QUADRATIC:
        return np.where(a <= 1.0, (1.0 - a) ** 2, 0.0)
    if fam is LossFamily.SIGMOID:
        return 1.0 - np.tanh(loss.k * a)
    return np.clip(1.0 - a / loss.rho, 0.0, 1.0)


_EDGE_MARGINS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 1.0, -1.0]


class TestInPlaceKernel:
    """``eval_margin_loss(loss, a, out=buf)`` computes in buf the bits of the
    allocating call, which are those of the old whole-array expressions."""

    @pytest.mark.parametrize(
        "loss", ALL_LOSSES + [sigmoid(2.5), rho_margin(0.3)], ids=lambda l: l.label()
    )
    @settings(max_examples=60, deadline=None)
    @given(a=st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_MARGINS)), min_size=1, max_size=40))
    @example(a=_EDGE_MARGINS)
    def test_out_matches_the_allocating_call_bit_for_bit(self, loss, a):
        a = np.array(a)
        with np.errstate(all="ignore"):
            want = eval_margin_loss(loss, a)
            buf = np.full(a.shape, 7.0)
            got = eval_margin_loss(loss, a, out=buf)
            alias = a.copy()
            eval_margin_loss(loss, alias, out=alias)  # the margins' own buffer
            ref = _allocating_reference(loss, a)
        assert got is buf
        for arr in (got, alias, ref):
            assert np.array_equal(arr.view(np.uint64), want.view(np.uint64))
