"""Hypothesis-class score ranges and adversarial extrema."""

import math

import numpy as np
import pytest

from hcbounds.bounds import _score_kernel
from hcbounds.hypotheses import (
    HypothesisClass,
    HypothesisSpec,
    LinearHypothesis,
    attainable_adversarial_range,
    score_range,
)

LIN = HypothesisClass.LINEAR
RELU = HypothesisClass.ONE_HIDDEN_RELU


def adversarial_extrema(h, x, gamma):
    """(lo, hi), the extreme scores of h over the gamma-ball around x, as
    ``bounds._score_kernel`` takes them: its margin is lo at y = +1 and -hi
    at y = -1 (at gamma = 0, y*s in its standard branch, which is the same)."""
    _, lo = _score_kernel(h.w, h.b, x, 1, gamma)
    _, neg_hi = _score_kernel(h.w, h.b, x, -1, gamma)
    return float(lo), -float(neg_hi)


class TestSpecValidation:
    def test_gamma_range(self):
        with pytest.raises(ValueError):
            HypothesisSpec(LIN, gamma=1.0)
        HypothesisSpec(LIN, gamma=0.0)  # non-adversarial degenerate allowed

    def test_infinite_bias_sentinel(self):
        spec = HypothesisSpec(LIN, W=1.0, B=math.inf)
        assert spec.margin_scale() == math.inf

    def test_linear_hypothesis_validation(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        LinearHypothesis((0.9,), 0.4).validate(spec)
        with pytest.raises(ValueError):
            LinearHypothesis((1.5,), 0.0).validate(spec)
        with pytest.raises(ValueError):
            LinearHypothesis((0.5,), 0.9).validate(spec)

    def test_no_norm_index(self):
        # inputs are scalars, so the class has no p (or q) to set
        with pytest.raises(TypeError):
            HypothesisSpec(LIN, p=2.0)


class TestLinearHypothesis:
    def test_scalar_and_one_tuple_agree(self):
        h = LinearHypothesis(0.5, 0.1)
        assert h == LinearHypothesis((0.5,), 0.1)
        assert isinstance(h.w, float)
        assert (h.w, h.b) == (0.5, 0.1)

    @pytest.mark.parametrize("w", [(0.5, 0.5), (), np.array([0.5]), "0.5"], ids=["2-tuple", "empty", "array", "str"])
    def test_anything_else_rejected(self, w):
        with pytest.raises(ValueError):
            LinearHypothesis(w, 0.0)

    # abs(nan) > W is False, so validate alone would let a NaN slope through
    @pytest.mark.parametrize("w, b, name", [(math.nan, 0.0, "w"), ((math.inf,), 0.0, "w"), (0.5, math.nan, "b"),
                                            (0.5, -math.inf, "b")])
    def test_non_finite_rejected(self, w, b, name):
        with pytest.raises(ValueError, match=f"finite {name}"):
            LinearHypothesis(w, b)


class TestScoreRange:
    def test_linear_at_unit_norm(self):
        assert score_range(HypothesisSpec(LIN, W=1.0, B=0.8), 1.0) == (-1.8, 1.8)

    def test_linear_at_origin(self):
        assert score_range(HypothesisSpec(LIN, W=1.0, B=0.8), 0.0) == (-0.8, 0.8)

    def test_relu_range(self):
        spec = HypothesisSpec(RELU, W=1.0, B=0.5, Lambda=2.0)
        assert score_range(spec, 1.0) == (-3.0, 3.0)

    def test_unbounded_class_rejected(self):
        with pytest.raises(ValueError):
            score_range(HypothesisSpec(HypothesisClass.ALL), 0.5)

    def test_symmetric_about_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            spec = HypothesisSpec(LIN, W=rng.uniform(0, 2), B=rng.uniform(0, 2))
            lo, hi = score_range(spec, float(rng.uniform(0, 1)))
            assert lo == -hi

    def test_relu_range_attained_by_sampled_networks(self):
        # grid max over (u, w, b) at d=1 approaches Lambda*(W*|x| + B) from below
        spec = HypothesisSpec(RELU, W=1.0, B=0.5, Lambda=2.0)
        x = 1.0
        rng = np.random.default_rng(3)
        top = 0.0
        for _ in range(500):
            n = int(rng.integers(1, 4))
            u = rng.uniform(-1, 1, n)
            u *= spec.Lambda / max(np.sum(np.abs(u)), 1e-12)
            w = rng.uniform(-spec.W, spec.W, n)
            b = rng.uniform(-spec.B, spec.B)
            val = float(np.sum(u * np.maximum(w * x + b, 0.0)))
            top = max(top, abs(val))
            assert abs(val) <= spec.score_bound(x) + 1e-9
        # witness u=(Lambda,), w=(W,), b=B attains the bound exactly
        witness = spec.Lambda * max(spec.W * x + spec.B, 0.0)
        assert witness == pytest.approx(spec.score_bound(x))
        assert top > 0.8 * spec.score_bound(x)


class TestAdversarialExtremaLinear:
    def test_bias_only(self):
        h = LinearHypothesis((0.0,), 0.3)
        assert adversarial_extrema(h, 0.7, 0.1) == (0.3, 0.3)

    def test_steep_negative_slope(self):
        h = LinearHypothesis((-5.0,), 0.0)
        lo, hi = adversarial_extrema(h, 0.05, 0.1)
        assert lo == pytest.approx(-0.75)
        assert hi == pytest.approx(0.25)

    def test_zero_radius(self):
        h = LinearHypothesis((1.0,), 0.0)
        assert adversarial_extrema(h, 0.5, 0.0) == (0.5, 0.5)

    def test_brackets_dense_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w, b = rng.uniform(-3, 3), rng.uniform(-1, 1)
            x0, gamma = rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.4)
            h = LinearHypothesis((w,), b)
            lo, hi = adversarial_extrema(h, x0, gamma)
            grid = w * np.linspace(x0 - gamma, x0 + gamma, 4001) + b
            assert lo <= grid.min() + 1e-9
            assert hi >= grid.max() - 1e-9
            assert abs(lo - grid.min()) < 1e-9 and abs(hi - grid.max()) < 1e-9


class TestAttainableAdversarialRange:
    def test_linear_closed_form(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.8, gamma=0.1)
        lo, hi = attainable_adversarial_range(spec, 1.0)
        assert lo == hi == pytest.approx(1.7)

    def test_small_norm_collapses_to_bias(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.8, gamma=0.1)
        lo, hi = attainable_adversarial_range(spec, 0.0)
        assert lo == hi == pytest.approx(0.8)

    def test_relu_sandwich(self):
        spec = HypothesisSpec(RELU, W=1.0, B=0.8, Lambda=1.0, gamma=0.1)
        assert attainable_adversarial_range(spec, 1.0) == pytest.approx((0.8, 1.7))

    def test_sampled_linear_worst_case_scores_stay_below(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.8, gamma=0.1)
        rng = np.random.default_rng(21)
        for x in (0.0, 0.3, 1.0):
            target, _ = attainable_adversarial_range(spec, x)
            best = -math.inf
            for _ in range(400):
                h = LinearHypothesis((rng.uniform(-spec.W, spec.W),), rng.uniform(-spec.B, spec.B))
                lo, _hi = adversarial_extrema(h, x, spec.gamma)
                best = max(best, lo)
                assert lo <= target + 1e-12
            assert best > target - 0.15  # random search approaches the supremum


class TestInputChecks:
    @pytest.mark.parametrize(
        "kwargs,match",
        [({"W": -1.0}, "W must be finite"), ({"W": math.inf}, "W must be finite"), ({"W": math.nan}, "W must be finite"),
         ({"B": -0.5}, "B must be >= 0"), ({"B": math.nan}, "B must be >= 0"),
         ({"cls": HypothesisClass.ONE_HIDDEN_RELU, "Lambda": -1.0}, "Lambda must be finite"),
         ({"cls": HypothesisClass.ONE_HIDDEN_RELU, "Lambda": math.inf}, "Lambda must be finite")],
    )
    def test_spec_budgets_refused(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            HypothesisSpec(**{"cls": HypothesisClass.LINEAR, **kwargs})

    @pytest.mark.parametrize("cls", [HypothesisClass.ALL, HypothesisClass.ONE_HIDDEN_RELU])
    def test_validate_needs_a_linear_spec(self, cls):
        with pytest.raises(ValueError, match="only validates against a LINEAR spec"):
            LinearHypothesis((0.1,), 0.0).validate(HypothesisSpec(cls))

    def test_adversarial_range_undefined_on_the_unrestricted_class(self):
        with pytest.raises(ValueError, match="undefined for the unbounded class"):
            attainable_adversarial_range(HypothesisSpec(HypothesisClass.ALL, gamma=0.1), 0.5)
