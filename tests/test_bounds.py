"""Risks, best-in-class values, gaps, assembled bounds, and the discrete verifier."""

import dataclasses
import hashlib
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_distributions
from hcbounds import bounds, distributions
from hcbounds.bounds import (
    Exact,
    MonteCarlo,
    Target,
    _expect_min_conditional,
    _holds,
    _loss_values,
    _massart_masses,
    _mc_risks,
    _score_kernel,
    _zero_one_risk,
    assemble_bound,
    best_in_class_risk,
    negative_result_demo,
    risk,
    surrogate_split,
    verify_psi_bound_discrete,
)
from hcbounds.conditional import (
    ConditionalPoint,
    OracleInfeasibleError,
    min_conditional_risk,
    min_risk_symmetric,
)
from hcbounds.distributions import (
    _SAMPLE_BLOCK,
    Atom,
    Component,
    LabeledDistribution,
    QuadratureError,
    TruncNormal,
    expectation,
    sample,
    sect7_adversarial,
    sect7_nonadversarial,
)
from hcbounds.hypotheses import HypothesisClass, HypothesisSpec, LinearHypothesis
from hcbounds.losses import (
    ZERO_ONE,
    ZeroOneLoss,
    eval_margin_loss,
    exponential,
    hinge,
    logistic,
    quadratic,
    rho_margin,
    sigmoid,
)
from hcbounds.transforms import NegativeResultError, select_transform, transform
from test_conditional import conditional_risk, conditional_risk_zero_one
from test_distributions import _eta_reference, _mixture
from test_transforms import scaled

LIN = HypothesisClass.LINEAR
ALL = HypothesisClass.ALL


def singleton(x, eta):
    return LabeledDistribution.from_atoms(((x, 1.0, eta),))


class TestRisk:
    def test_zero_hypothesis_predicts_positive(self):
        d = sect7_nonadversarial(0.1)
        h0 = LinearHypothesis((0.0,), 0.0)
        val, se = risk(ZERO_ONE, h0, d, Exact())
        assert se == 0.0
        assert val == pytest.approx(0.5)  # P(y = -1)

    def test_sup_rho_of_zero_hypothesis_is_one(self):
        d = sect7_adversarial(0.05, 0.1)
        h0 = LinearHypothesis((0.0,), 0.0)
        val, _ = risk(rho_margin(1.0), h0, d, Exact(), gamma=0.1)
        assert val == pytest.approx(1.0)

    def test_risk_and_expectation_share_the_quadrature_ceiling(self, monkeypatch):
        # an error estimate of 2e-8 is above the one 1e-8 ceiling, whoever integrates;
        # the logistic risk is one of the two that integrate, hinge's is closed form
        monkeypatch.setattr(distributions, "_gauss_kronrod", lambda f, a, b, points=(): (0.0, 2e-8))
        d, h = sect7_nonadversarial(0.1), LinearHypothesis((-5.0,), 0.0)
        with pytest.raises(QuadratureError, match="above tolerance 1e-08"):
            risk(logistic(), h, d, Exact())
        with pytest.raises(QuadratureError, match="above tolerance 1e-08"):
            expectation(d, lambda x, e: e)
        assert risk(hinge(), h, d, Exact(), with_error=True)[2] == 0.0
        monkeypatch.setattr(distributions, "_gauss_kronrod", lambda f, a, b, points=(): (0.0, 1e-8))
        assert risk(logistic(), h, d, Exact(), with_error=True)[2] == 1e-8 * (7 / 16 + 7 / 16)

    def test_exact_matches_monte_carlo(self):
        d = sect7_nonadversarial(0.1)
        h = LinearHypothesis((-5.0,), 0.0)
        for loss, adv in ((quadratic(), False), (hinge(), False), (rho_margin(1.0), True)):
            gamma = 0.1 if adv else 0.0
            dd = sect7_adversarial(0.05, 0.1) if adv else d
            exact, _ = risk(loss, h, dd, Exact(), gamma=gamma)
            mc, se = risk(loss, h, dd, MonteCarlo(10**6, 3), gamma=gamma)
            assert abs(mc - exact) <= 4 * se

    def test_zero_one_exact_known_value(self):
        # h(x) = -5x misclassifies both truncated-normal lobes and no atoms
        d = sect7_nonadversarial(0.1)
        val, _ = risk(ZERO_ONE, LinearHypothesis((-5.0,), 0.0), d, Exact())
        assert val == pytest.approx(7 / 8)

    def test_gamma_alone_selects_the_robust_risk(self):
        # h(x) = 0.1 - x: every lobe point's worst-case score over the 0.3-ball
        # reaches the wrong side or 0, no endpoint atom's does, so R = 14/16;
        # the standard risk (gamma = 0) is 0.5763
        d, h = sect7_nonadversarial(0.05), LinearHypothesis((-1.0,), 0.1)
        assert risk(ZERO_ONE, h, d, Exact(), 0.3) == (0.875, 0.0)
        assert risk(ZERO_ONE, h, d, Exact())[0] == pytest.approx(0.5763, abs=1e-4)

    def test_gamma_alone_selects_the_robust_best_in_class_risk(self):
        # the worst-case hinge is at least 1 - y*(w*x + b) + 0.3*|w|, whose mean
        # is 1 + 0.3*|w| - w*E[yx] >= 1 (E[y] = 0, |E[yx]| < 0.3), and h = 0
        # attains 1: R*_H = 1 (the standard one is 0.9537)
        d = sect7_nonadversarial(0.05)
        e_y = sum(c.weight * c.label for c in d.components)
        e_yx = expectation(d, lambda x, e: x * (2.0 * e - 1.0))
        assert e_y == 0.0 and abs(e_yx) < 0.3
        got = best_in_class_risk(hinge(), HypothesisSpec(LIN, W=1.0, B=0.5, gamma=0.3), d)
        assert got.value - got.tol <= 1.0 <= got.value + 1e-12
        assert got.value == risk(hinge(), LinearHypothesis((got.w,), got.b), d, Exact(), 0.3)[0]

    @pytest.mark.parametrize("gamma", [-0.1, 1.0, math.nan, True], ids=["negative", "one", "nan", "stale-flag"])
    def test_gamma_outside_the_unit_interval_rejected(self, gamma):
        # True is what a stale positional call passes for the removed flag
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\)"):
            risk(ZERO_ONE, LinearHypothesis((1.0,), 0.0), sect7_nonadversarial(0.1), Exact(), gamma)


def _hexdigest(values):
    return hashlib.sha256(",".join(float(v).hex() for v in values).encode()).hexdigest()


def _pin_hypotheses():
    rng = np.random.default_rng(2024)
    fixed = [(0.0, 0.0), (-0.0, 0.0), (0.0, 0.3), (0.0, -0.3), (2.0, 0.2), (2.0, -0.2), (-5.0, 0.0)]
    drawn = zip(rng.uniform(-6.0, 6.0, 33), rng.uniform(-1.0, 1.0, 33))
    return [LinearHypothesis((w,), b) for w, b in fixed + [(float(w), float(b)) for w, b in drawn]]


_PIN_DISTS = {"nonadv": lambda: sect7_nonadversarial(0.1), "adv": lambda: sect7_adversarial(0.1, 0.1)}

# SHA-256 of the exact zero-one risks (hex floats) of _pin_hypotheses(),
# computed when risk still had its own atom loop and scalar tail-mass code;
# (2.0, +-0.2) put the robust ball's edge at 0 for x = 0, gamma = 0.1.
_ZERO_ONE_RISK_DIGESTS = {
    ("nonadv", False): "c3a309c2d070d0e8e4d3c95c3638d46ed3c3e56511ff40c0f58be143a59e6408",
    ("nonadv", True): "517f089c97c712b1c1f9b312d818786331918fcf931347ba78fa628f22b5a77f",
    ("adv", False): "516e668ff4d3ca8fc718644f1d4626198ac56e636266431545f857f2a1fdf458",
    ("adv", True): "6bf1461c6bacad1f66bfdff0231a0ccdbc45361b8ed80a86041aafa6bbb00b3e",
}

# SHA-256 of the bytes of _zero_one_risk on a 21 x 21 (w, b) grid, computed
# when a grid search still scored the zero-one loss with its own arithmetic
_RISK_GRID_DIGESTS = {
    ("zero-one", False): "220ac628af4ebc399d5c146b0cb06ae87b1a79dfe5a63acbc95e17d36a14c61d",
    ("zero-one", True): "bc2068b3e088cdb50d548b15f5f13a86ff9e8a779474f1494a68134c9b89b617",
}


class TestPinnedRiskValues:
    @pytest.mark.parametrize("dist_name, adversarial", sorted(_ZERO_ONE_RISK_DIGESTS))
    def test_exact_zero_one_risk_digest(self, dist_name, adversarial):
        dist, gamma = _PIN_DISTS[dist_name](), 0.1 if adversarial else 0.0
        vals = [risk(ZERO_ONE, h, dist, Exact(), gamma)[0] for h in _pin_hypotheses()]
        assert _hexdigest(vals) == _ZERO_ONE_RISK_DIGESTS[dist_name, adversarial]

    @pytest.mark.parametrize("loss", [ZERO_ONE], ids=lambda l: l.label())
    @pytest.mark.parametrize("adversarial", [False, True])
    def test_risk_grid_digest(self, loss, adversarial):
        # the exact risk that risk and the threshold search share, on a grid
        dist = _PIN_DISTS["adv" if adversarial else "nonadv"]()
        w_vals, b_vals = np.linspace(-3.0, 3.0, 21), np.linspace(-1.0, 1.0, 21)
        grid = _zero_one_risk(dist, w_vals[:, None], b_vals[None, :], 0.1 if adversarial else 0.0)
        assert hashlib.sha256(grid.tobytes()).hexdigest() == _RISK_GRID_DIGESTS[loss.label(), adversarial]


class TestNonFiniteRiskGrid:
    """A class whose bias budget overflows the surrogate: the search scores
    those hypotheses inf, never NaN, and raises no overflow warning."""

    @pytest.mark.parametrize("loss", [quadratic(), exponential()], ids=lambda l: l.label())
    def test_search_skips_infinite_cells(self, loss):
        spec = HypothesisSpec(LIN, W=1.0, B=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            star = best_in_class_risk(loss, spec, sect7_nonadversarial(0.02))
        assert math.isfinite(star.value) and abs(star.b) < 1e199


@st.composite
def _atom_mixture(draw):
    """1-4 atoms of either label, with weights n_i / sum(n)."""
    counts = draw(st.lists(st.integers(1, 100), min_size=1, max_size=4))
    return LabeledDistribution(tuple(Component(n / sum(counts), draw(st.sampled_from([-1, 1])),
                                               Atom(draw(st.floats(-1.0, 1.0)))) for n in counts))


_MARGIN_LOSSES = (hinge(), logistic(), exponential(), quadratic(), sigmoid(1.0), rho_margin(0.5))


class TestBestInClass:
    def test_singleton_equals_pointwise_minimum(self):
        d = singleton(0.5, 0.8)
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        got = best_in_class_risk(hinge(), spec, d)
        want = min_conditional_risk(hinge(), spec, ConditionalPoint(0.5, 0.8))
        assert got.value == pytest.approx(want, abs=1e-6)

    def test_unrestricted_class_exact(self):
        d = sect7_nonadversarial(0.1)
        got = best_in_class_risk(quadratic(), HypothesisSpec(ALL), d)
        assert got.tol == 0.0
        assert got.value == pytest.approx(0.0, abs=1e-8)

    def test_grid_value_dominates_conditional_floor(self):
        d = sect7_nonadversarial(0.1)
        spec = HypothesisSpec(LIN, W=2.0, B=1.0)
        from hcbounds.distributions import expectation

        for loss in (hinge(), sigmoid(1.0)):
            got = best_in_class_risk(loss, spec, d)
            floor = expectation(d, lambda x, e, _l=loss: min_risk_symmetric(_l, spec.score_bound(np.abs(x)), e))
            assert got.value >= floor - 1e-4

    def test_larger_class_is_no_worse_on_the_pool_case(self):
        # the bound pool's hinge class of slot 8 contains slot 28's; a
        # (w, b) grid search put the larger's R* at 0.907796 > 0.906463
        d = sect7_nonadversarial(0.02)
        larger = best_in_class_risk(hinge(), HypothesisSpec(LIN, W=5.84, B=0.78), d)
        smaller = best_in_class_risk(hinge(), HypothesisSpec(LIN, W=1.87, B=0.24), d)
        assert larger.value <= smaller.value + larger.tol

    @settings(max_examples=40, deadline=None)
    @given(dist=_atom_mixture(), loss=st.sampled_from([hinge(), logistic(), exponential(), quadratic(), sigmoid(2.0),
                                                       rho_margin(0.5)]),
           W=st.floats(0.0, 3.0), B=st.floats(0.0, 1.0), grow=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 1.0)),
           gamma=st.sampled_from([0.0, 0.1]))
    def test_larger_class_is_no_worse(self, dist, loss, W, B, grow, gamma):
        # atoms only: every risk is exact, so the search's tol is all the slack
        small, large = (HypothesisSpec(LIN, W=W + dW, B=B + dB, gamma=gamma) for dW, dB in ((0.0, 0.0), grow))
        smaller = best_in_class_risk(loss, small, dist)
        larger = best_in_class_risk(loss, large, dist)
        assert larger.value <= smaller.value + larger.tol + 1e-12

    @pytest.mark.parametrize("loss", _MARGIN_LOSSES, ids=lambda l: l.label())
    @pytest.mark.parametrize("adversarial", [False, True])
    def test_search_is_within_tol_of_a_grid(self, loss, adversarial):
        # the box a (w, b) grid search once covered: its exact risks on an
        # 11 x 11 grid (corners and w = 0 included) bound value - tol
        dist, gamma = _PIN_DISTS["adv" if adversarial else "nonadv"](), 0.1 if adversarial else 0.0
        spec = HypothesisSpec(LIN, W=3.0, B=1.0, gamma=gamma)
        got = best_in_class_risk(loss, spec, dist)
        assert abs(got.w) <= spec.W and abs(got.b) <= spec.B
        assert got.value == risk(loss, LinearHypothesis((got.w,), got.b), dist, Exact(), gamma)[0]
        grid = min(risk(loss, LinearHypothesis((w,), b), dist, Exact(), gamma)[0]
                   for w in np.linspace(-3.0, 3.0, 11) for b in np.linspace(-1.0, 1.0, 11))
        assert got.value - got.tol <= grid + 1e-12
        # rho-margin's corner-margin bound stalls at the budget (tol 3.4e-4 there)
        assert 0.0 <= got.tol <= (1e-3 if (loss.label(), adversarial) == ("rho-margin(rho=0.5)", False) else 1e-5)

    def test_zero_one_linear_on_preset(self):
        # only the two flipped endpoint atoms are inseparable: R* = 1/8
        d = sect7_nonadversarial(0.05)
        got = best_in_class_risk(ZERO_ONE, HypothesisSpec(LIN, W=1.0, B=0.5), d)
        assert got.value == 1 / 8
        assert got.tol == 0.0

    def test_relu_not_supported(self):
        with pytest.raises(ValueError):
            best_in_class_risk(hinge(), HypothesisSpec(HypothesisClass.ONE_HIDDEN_RELU), sect7_nonadversarial(0.1))


def threshold_scan(spec, dist, adversarial, grid_n=2001):
    """R*_01,H over a linear class at d = 1 by brute force over thresholds:
    the zero-one best-in-class search's independent reference.

    For w != 0 the error depends on (w, b) only through theta = -b/w and
    s = sign(w).  This scores (theta, s) by the error's definition, not by
    the score kernel: the robust error at (x, y) is y*s*(x - theta) <= gamma,
    the standard one whether the prediction, +1 where s*(x - theta) >= 0,
    differs from y.  Atoms are compared with theta in exact rational
    arithmetic, at every breakpoint (an atom location or a support end, each
    +-gamma) and in the limits from either side of it.  On each open
    interval between breakpoints the atoms' part is constant, and the
    truncated normals' tail masses are scanned on a ``grid_n``-point grid,
    whose least interior point bounded Brent refines.  With B > 0 every
    theta is in the class, with B = 0 only theta = 0, with W = 0 none; the
    constants (w = 0, b = 0 and, with B > 0, b of either sign) complete it.
    """
    from fractions import Fraction

    from scipy.optimize import minimize_scalar

    gamma = spec.gamma if adversarial else 0.0
    g = Fraction(gamma)
    atoms = [(Fraction(c.law.x), c.label, c.weight) for c in dist.atoms()]
    comps = dist.continuous()

    def atom_part(theta, side, s):  # at theta + side * (an infinitesimal)
        total = 0.0
        for x, y, weight in atoms:
            if adversarial:  # y*s*(x - theta) - gamma <= 0
                a, e = y * s * (x - theta) - g, -y * s * side
                err = a < 0 or (a == 0 and e <= 0)
            else:  # the prediction is +1 where s*(x - theta) >= 0
                a, e = s * (x - theta), -s * side
                err = (a > 0 or (a == 0 and e >= 0)) != (y > 0)
            total += weight * err
        return total

    def tail_part(theta, s):  # theta a float array
        total = np.zeros(theta.shape)
        for c in comps:
            mass = c.law.cdf(theta + gamma) if c.label == s else 1.0 - c.law.cdf(theta - gamma)
            total = total + c.weight * mass
        return total

    p_neg = math.fsum(c.weight for c in dist.components if c.label < 0)
    values = [1.0 if adversarial else p_neg]  # w = 0, b = 0
    if spec.B > 0:
        values += [p_neg, 1.0 - p_neg]
    if spec.W > 0 and spec.B == 0:
        values += [atom_part(Fraction(0), 0, s) + float(tail_part(np.zeros(1), s)[0]) for s in (1, -1)]
    elif spec.W > 0:
        locs = [x for x, _, _ in atoms] + [Fraction(e) for c in comps for e in (c.law.lo, c.law.hi)]
        points = sorted({x + d for x in locs for d in (g, -g)})
        edges = [points[0] - 1, *points, points[-1] + 1]
        for s in (1, -1):
            tails = tail_part(np.array([float(p) for p in points]), s)
            values += [atom_part(p, side, s) + t for p, t in zip(points, tails) for side in (-1, 0, 1)]
            for lo, hi in zip(edges, edges[1:]):
                xs = np.linspace(float(lo), float(hi), grid_n)
                ts = tail_part(xs, s)
                k = int(np.argmin(ts))
                best = float(ts[k])
                if 0 < k < grid_n - 1:
                    res = minimize_scalar(lambda t: float(tail_part(np.array([t]), s)[0]), method="bounded",
                                          bounds=(xs[k - 1], xs[k + 1]), options={"xatol": 1e-13})
                    best = min(best, float(res.fun))
                values.append(atom_part((lo + hi) / 2, 0, s) + best)
    return float(min(values))


# a -1 lobe on [-1, 0.6] and a +1 lobe on [0.6, 1]: theta = 0.6 splits them,
# which a (w, b) grid search with B << W missed
_SPLIT_AT_0_6 = LabeledDistribution(
    (
        Component(0.5, -1, TruncNormal(-1.0, 0.6, 0.2, 0.3)),
        Component(0.5, 1, TruncNormal(0.6, 1.0, 0.8, 0.2)),
    )
)

# a +1 lobe on [0, 1] and a -1 atom at its upper end: only a threshold a few
# ulps below 1 separates them (R* is 1e-15, the lobe's mass above it); the
# breakpoint 1 itself misclassifies the atom or the whole lobe
_ATOM_AT_SUPPORT_END = LabeledDistribution(
    (Component(0.5, 1, TruncNormal(0.0, 1.0, 0.0, 1.0)), Component(0.5, -1, Atom(1.0)))
)

# a +1 lobe and a -1 lobe whose slope turns twice, about 3e-3 apart below their
# shared support end 0.15875: between two of the nodes that once bracketed the
# turns, where a search on them missed R* by 4.6e-8
_TWO_CLOSE_TURNS = LabeledDistribution(
    (
        Component(0.31904838181246176, 1, TruncNormal(-1.0, 0.15875, 0.1, 0.15)),
        Component(0.6809516181875382, -1, TruncNormal(-1.0, 0.15875, 0.0, 0.25)),
    )
)


@st.composite
def _linear_specs(draw):
    """A linear class, robust or not, with B = 0, W = 0 and B = inf among
    the drawn budgets."""
    W = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    B = draw(st.one_of(st.sampled_from([0.0, math.inf]), st.floats(1e-4, 2.0)))
    return HypothesisSpec(LIN, W=W, B=B, gamma=draw(st.sampled_from([0.0, 0.05, 0.3])))


class TestZeroOneThresholdSearch:
    """The zero-one best-in-class risk over the linear class is exact: a
    (w, b) in the class whose exact risk is the threshold scan's least
    value, to rounding, with tol 0.  Only where two breakpoints lie within
    rounding of each other may it miss, and by at most its tol."""

    @staticmethod
    def _check(spec, dist):
        adversarial = spec.adversarial
        got = best_in_class_risk(ZERO_ONE, spec, dist)
        h = LinearHypothesis((got.w,), got.b)
        assert abs(h.w) <= spec.W and abs(h.b) <= spec.B
        assert got.value == risk(ZERO_ONE, h, dist, Exact(), spec.gamma)[0]
        shifts = (-spec.gamma, spec.gamma) if adversarial else (0.0,)
        ends = [c.law.x for c in dist.atoms()] + [e for c in dist.continuous() for e in (c.law.lo, c.law.hi)]
        points = sorted({x + s for x in ends for s in shifts})
        if all(q - p > 1e-9 for p, q in zip(points, points[1:])):
            assert got.tol == 0.0
        scan = threshold_scan(spec, dist, adversarial)
        assert scan - 1e-12 <= got.value <= scan + got.tol + 1e-12
        return got

    @settings(max_examples=40, deadline=None)
    @given(spec=_linear_specs(), dist=_mixture())
    @example(spec=HypothesisSpec(LIN, W=1.0, B=0.5), dist=sect7_nonadversarial(0.05))
    @example(spec=HypothesisSpec(LIN, W=5.0, B=1.0, gamma=0.1), dist=sect7_adversarial(0.1, 0.1))
    @example(spec=HypothesisSpec(LIN, W=1.0, B=math.inf), dist=_ATOM_AT_SUPPORT_END)
    # overlapping lobes: the least risk lies where the slope turns, at theta = 0
    # (w > 0) and, with unequal lobes, off the breakpoints (w < 0)
    @example(spec=HypothesisSpec(LIN, W=1.0, B=1.0), dist=LabeledDistribution(
        (Component(0.5, 1, TruncNormal(-1.0, 1.0, 0.3, 0.2)), Component(0.5, -1, TruncNormal(-1.0, 1.0, -0.3, 0.2)))))
    @example(spec=HypothesisSpec(LIN, W=2.0, B=0.3, gamma=0.05), dist=LabeledDistribution(
        (Component(0.6, -1, TruncNormal(-1.0, 1.0, 0.25, 0.2)), Component(0.4, 1, TruncNormal(-1.0, 0.9, -0.35, 0.3)))))
    @example(spec=HypothesisSpec(LIN, W=1.0, B=1.0), dist=_TWO_CLOSE_TURNS)
    def test_matches_threshold_scan(self, spec, dist):
        self._check(spec, dist)

    def test_split_distribution_has_zero_risk_at_small_bias(self):
        # the grid search gave R* = 3.6e-3 here, and lhs = -3.6e-3 below
        spec = HypothesisSpec(LIN, W=1.0, B=0.001)
        assert self._check(spec, _SPLIT_AT_0_6).value == 0.0
        rep = assemble_bound(Target.ZERO_ONE, hinge(), spec, _SPLIT_AT_0_6, LinearHypothesis((0.001,), -0.0006))
        assert rep.lhs == 0.0 and rep.m_target >= 0.0
        assert dict(rep.provenance)["best_in_class_tol"] == 0.0

    def test_breakpoints_a_rounding_apart_count_their_atoms(self):
        # the robust breakpoints 2*fl(1/3) and 1 - fl(1/3) are an ulp apart:
        # thresholds between them separate the atoms (R* = 0), no float (w, b) does
        third = 1.0 / 3.0
        dist = LabeledDistribution((Component(0.5, -1, Atom(third)), Component(0.5, 1, Atom(1.0))))
        spec = HypothesisSpec(LIN, W=0.3, B=0.001, gamma=third)
        got = self._check(spec, dist)
        assert threshold_scan(spec, dist, True) == 0.0 and got.value == 0.5 and got.tol >= 1.0
        # breakpoints that coincide exactly, 0.25 + 0.25 = 0.75 - 0.25, leave nothing between them
        dist = LabeledDistribution((Component(0.5, -1, Atom(0.25)), Component(0.5, 1, Atom(0.75))))
        got = self._check(HypothesisSpec(LIN, W=0.3, B=0.001, gamma=0.25), dist)
        assert (got.value, got.tol) == (0.5, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        dist=_mixture(),
        budgets=st.lists(st.tuples(st.floats(1e-3, 10.0), st.one_of(st.just(math.inf), st.floats(1e-4, 2.0))),
                         min_size=2, max_size=4),
        gamma=st.sampled_from([0.0, 0.05, 0.3]),
    )
    def test_same_for_every_positive_budget(self, dist, budgets, gamma):
        # every threshold is in the class once B > 0, whatever W and B
        values = [best_in_class_risk(ZERO_ONE, HypothesisSpec(LIN, W=W, B=B, gamma=gamma), dist).value
                  for W, B in budgets]
        assert max(values) - min(values) <= 1e-12


class TestPositiveCells:
    """The sign-change finder's cells tile the interval, and each settled
    cell's verdict holds at every point drawn in it."""

    @settings(max_examples=30, deadline=None)
    @given(dist=_mixture(), beta=st.sampled_from([0.05, 0.25, 0.5]), gamma=st.sampled_from([0.0, 0.1]),
           seed=st.integers(0, 2**32 - 1))
    def test_settled_cells_hold_at_drawn_points(self, dist, beta, gamma, seed):
        comps = dist.continuous()
        massart = [[((0.5 + beta if c.label == y else beta - 0.5) * c.weight, c.law, 0.0) for c in comps]
                   for y in (-1, 1)]
        falls = [[(-c.label * c.weight, c.law, gamma * c.label) for c in comps]]
        for sums, lo, hi in ((massart, -1.0, 1.0), (falls, -1.0 - gamma, 1.0 + gamma)):
            cl, cu, pos = bounds._positive_cells(sums, lo, hi)
            assert cl[0] == lo and cu[-1] == hi and np.array_equal(cl[1:], cu[:-1]) and np.all(cl < cu)
            xs = np.random.default_rng(seed).uniform(lo, hi, 5000)
            values = [sum((a * law.pdf(xs + d) for a, law, d in terms), np.zeros(xs.size)) for terms in sums]
            scale = 1e-12 * sum(sum((abs(a) * law.pdf(xs + d) for a, law, d in terms), np.zeros(xs.size))
                                for terms in sums)
            least, at = np.min(values, axis=0), pos[np.searchsorted(cu, xs)]
            assert np.all(least[at == 1.0] > -scale[at == 1.0]) and np.all(least[at == 0.0] <= scale[at == 0.0])

    def test_a_sum_that_cancels_exactly_is_one_settled_cell(self):
        # two equal laws, not one object: they merge by value
        law = TruncNormal(-1.0, 1.0, 0.0, 0.3)
        cells = bounds._positive_cells([[(0.5, law, 0.0), (-0.5, TruncNormal(-1.0, 1.0, 0.0, 0.3), 0.0)]], -1.0, 1.0)
        assert [c.tolist() for c in cells] == [[-1.0], [1.0], [0.0]]

    def test_nearly_cancelling_lobes_stop_at_the_cell_budget(self):
        # laws 1e-13 apart in mean: the interval bounds separate only on cells
        # about as narrow, so the finder stops and says so (about 10 ms each)
        dist = LabeledDistribution((Component(0.5, 1, TruncNormal(-1.0, 1.0, 0.0, 0.3)),
                                    Component(0.5, -1, TruncNormal(-1.0, 1.0, 1e-13, 0.3))))
        got = best_in_class_risk(ZERO_ONE, HypothesisSpec(LIN, W=1.0, B=1.0), dist)
        assert got.tol == math.inf and abs(got.value - 0.5) < 1e-12
        violating, unsettled, _ = _massart_masses(dist, 1e-300)  # 1/2 +- beta round to 1/2: no violation
        assert violating == 0.0 and unsettled == pytest.approx(1.0)


def _is_singleton(dist):
    locs = {c.law.x for c in dist.components if isinstance(c.law, Atom)}
    return len(locs) == 1 and not dist.continuous()


def minimizability_gap(loss, spec, dist):
    """Best-in-class risk minus the expected pointwise minimal conditional
    risk, the tests' reference.

    Identically 0 for the unrestricted class with the losses in scope and for
    single-support distributions.  When only a bracket on the pointwise
    minimum exists (worst-case hinge/sigmoid, ReLU class) the gap is the
    conservative upper end, which keeps assembled bounds valid.
    """
    if spec.cls is HypothesisClass.ALL and not spec.adversarial:
        return 0.0
    if _is_singleton(dist):
        return 0.0
    star = best_in_class_risk(loss, spec, dist)
    return star.value - _expect_min_conditional(loss, spec, dist)[0]


class TestMinimizabilityGap:
    def test_unrestricted_class_vanishes(self):
        d = sect7_nonadversarial(0.1)
        assert minimizability_gap(ZERO_ONE, HypothesisSpec(ALL), d) == 0.0
        assert minimizability_gap(logistic(), HypothesisSpec(ALL), d) == 0.0

    def test_singleton_vanishes(self):
        d = singleton(0.4, 0.7)
        for loss in (hinge(), quadratic(), ZERO_ONE):
            assert minimizability_gap(loss, HypothesisSpec(LIN, W=1.0, B=0.5), d) == 0.0

    def test_nonnegative_on_presets(self):
        d = sect7_nonadversarial(0.1)
        spec = HypothesisSpec(LIN, W=2.0, B=1.0)
        for loss in (hinge(), quadratic(), sigmoid(1.0), ZERO_ONE):
            assert minimizability_gap(loss, spec, d) >= -1e-6

    @pytest.mark.parametrize("name", ["sect7-nonadv", "sect7-adv", "overlapping"])
    def test_zero_one_expectation_integrates_only_label_mixed_components(self, monkeypatch, name):
        """E[C*_01] skips each component whose support meets no continuous
        component of the other label (there min(eta, 1 - eta) * pdf is 0
        almost everywhere), and is the full expectation bit for bit."""
        dist = {"sect7-nonadv": sect7_nonadversarial(0.05), "sect7-adv": sect7_adversarial(0.05, 0.1),
                "overlapping": test_distributions.TestExpectation.OVERLAPPING}[name]
        full = expectation(dist, lambda x, e: np.minimum(e, 1.0 - e), with_error=True)
        real, integrated = distributions._gauss_kronrod, []
        monkeypatch.setattr(distributions, "_gauss_kronrod", lambda f, a, b, points=(): integrated.append((a, b))
                            or real(f, a, b, points))
        got = _expect_min_conditional(ZERO_ONE, HypothesisSpec(ALL), dist)
        assert [x.hex() for x in got] == [x.hex() for x in full]
        assert integrated == ([(-0.5, 0.8), (0.2, 1.0)] if name == "overlapping" else [])

    def test_adversarial_gap_nonnegative(self):
        d = sect7_adversarial(0.05, 0.1)
        spec = HypothesisSpec(LIN, W=5.0, B=1.0, gamma=0.1)
        g = minimizability_gap(rho_margin(1.0), spec, d)
        assert g >= -1e-6
        g01 = minimizability_gap(ZERO_ONE, spec, d)
        assert g01 >= -1e-6


MARGIN_LOSSES = (hinge(), logistic(), exponential(), quadratic(), sigmoid(1.7), rho_margin(0.6))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _reference_pointwise(w, b, xs, ys, adversarial, gamma):
    """(err, arg, {loss: values}) by the formulas the shared kernel replaced."""
    s = w * xs + b
    if adversarial:
        lo, hi = s - gamma * abs(w), s + gamma * abs(w)
        err = np.where(ys > 0, lo <= 0.0, hi >= 0.0)
        arg = np.where(ys > 0, lo, -hi)
        vals = {l: np.where(ys > 0, eval_margin_loss(l, lo), eval_margin_loss(l, -hi)) for l in MARGIN_LOSSES}
    else:
        err = np.where(s >= 0.0, 1, -1) != ys
        arg = ys * s
        vals = {l: eval_margin_loss(l, ys * s) for l in MARGIN_LOSSES}
    return err, arg, vals


@st.composite
def _kernel_cases(draw):
    gamma = draw(st.sampled_from([0.0, 0.1, 0.25]))
    adversarial = gamma > 0.0
    w = draw(st.one_of(st.sampled_from([0.0, -0.0, 2.0, -5.0]), st.floats(-6.0, 6.0)))
    spread = gamma * abs(w)
    # b = +-spread puts the ball's edge at exactly 0 for x = 0
    b = draw(st.one_of(st.sampled_from([0.0, -0.0, spread, -spread]), st.floats(-1.0, 1.0)))
    n = draw(st.integers(1, 40))
    x = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))
    xs = np.array(draw(st.lists(x, min_size=n, max_size=n)))
    ys = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)), dtype=np.int64)
    return w, b, xs, ys, adversarial, gamma


class TestScoreKernel:
    @settings(max_examples=300, deadline=None)
    @given(_kernel_cases())
    @example((2.0, 0.5, np.array([0.0, -0.0, 0.0, -0.0]), np.array([1, 1, -1, -1]), True, 0.25))
    @example((2.0, -0.5, np.array([0.0, -0.0, 0.0, -0.0]), np.array([1, 1, -1, -1]), True, 0.25))
    @example((3.0, 0.0, np.array([0.0, -0.0, 0.0, -0.0]), np.array([1, -1, 1, -1]), False, 0.0))
    @example((-0.0, -0.0, np.array([0.5, -0.5]), np.array([1, -1]), False, 0.0))
    def test_matches_reference_formulas_bit_for_bit(self, case):
        w, b, xs, ys, adversarial, gamma = case
        err_ref, arg_ref, vals_ref = _reference_pointwise(w, b, xs, ys, adversarial, gamma)
        for in_place in (False, True):
            buf = xs.copy()
            err, arg = _score_kernel(w, b, buf, ys, gamma, out=buf if in_place else None)
            assert err.dtype == bool and np.array_equal(err, err_ref)
            assert np.array_equal(_bits(arg), _bits(arg_ref))
            assert (arg is buf) == in_place
        assert np.array_equal(_loss_values(ZERO_ONE, *_score_kernel(w, b, xs, ys, gamma)), err_ref.astype(float))
        for loss, ref in vals_ref.items():
            assert np.array_equal(_bits(eval_margin_loss(loss, arg)), _bits(ref))
            assert np.array_equal(_bits(_loss_values(loss, *_score_kernel(w, b, xs, ys, gamma))), _bits(ref))


class TestAssembleBound:
    def test_out_of_class_hypothesis_rejected(self):
        d = singleton(0.5, 0.8)
        for gamma, target in ((0.0, Target.ZERO_ONE), (0.1, Target.ADVERSARIAL_ZERO_ONE)):
            spec = HypothesisSpec(LIN, W=1.0, B=0.5, gamma=gamma)
            for h in (LinearHypothesis((3.0,), 0.0), LinearHypothesis((0.5,), 2.0)):
                with pytest.raises(ValueError, match="outside the class"):
                    assemble_bound(target, rho_margin(1.0), spec, d, h)

    @pytest.mark.parametrize("target, gamma, msg", [
        (Target.ADVERSARIAL_ZERO_ONE, 0.0, "^adversarial target requires spec.gamma > 0$"),
        (Target.ZERO_ONE, 0.1, "^non-adversarial target requires spec.gamma = 0$"),
    ], ids=["adversarial-target-gamma-0", "zero-one-target-gamma-positive"])
    def test_target_must_match_gamma(self, target, gamma, msg):
        # the CLI derives the target from gamma, so only library callers can mismatch them
        spec = HypothesisSpec(LIN, W=1.0, B=0.5, gamma=gamma)
        with pytest.raises(ValueError, match=msg):
            assemble_bound(target, rho_margin(1.0), spec, singleton(0.5, 0.8), LinearHypothesis((0.5,), 0.0))

    def test_singleton_hinge_exact(self):
        d = singleton(0.5, 0.8)
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        h = LinearHypothesis((-0.4,), 0.0)  # h(0.5) = -0.2, wrong side
        rep = assemble_bound(Target.ZERO_ONE, hinge(), spec, d, h)
        assert rep.lhs == pytest.approx(0.6)
        # Delta C_hinge(h) / min{B,1}: C = 0.8*1.2 + 0.2*0.8 = 1.12, C* = 0.4
        assert rep.rhs == pytest.approx((1.12 - 0.4) / 0.5)
        assert rep.holds and rep.slack >= 0.0

    def test_holds_on_random_exact_instances(self):
        rng = np.random.default_rng(12)
        losses = [hinge(), logistic(), exponential(), quadratic(), sigmoid(1.0), rho_margin(1.0)]
        for trial in range(12):
            atoms = []
            k = int(rng.integers(1, 4))
            ws = rng.dirichlet(np.ones(k))
            for j in range(k):
                atoms.append((float(rng.uniform(-1, 1)), float(ws[j]), float(rng.uniform(0, 1))))
            d = LabeledDistribution.from_atoms(tuple(atoms))
            spec = HypothesisSpec(LIN, W=1.0, B=float(rng.uniform(0.2, 1.5)))
            h = LinearHypothesis((float(rng.uniform(-1, 1)),), float(rng.uniform(-spec.B, spec.B)))
            loss = losses[trial % len(losses)]
            rep = assemble_bound(Target.ZERO_ONE, loss, spec, d, h)
            assert rep.slack >= -1e-6, (loss.label(), trial)

    def test_trivial_case_rho_margin_reduces_to_risk_comparison(self):
        d = sect7_adversarial(0.1, 0.1)
        spec = HypothesisSpec(LIN, W=5.0, B=1.5, gamma=0.1)  # B >= rho
        h = LinearHypothesis((-5.0,), 0.0)
        rep = assemble_bound(Target.ADVERSARIAL_ZERO_ONE, rho_margin(1.0), spec, d, h)
        r_sup, _ = risk(rho_margin(1.0), h, d, Exact(), gamma=0.1)
        r_star = best_in_class_risk(ZERO_ONE, spec, d).value
        assert rep.rhs == pytest.approx(r_sup - r_star, abs=1e-6)
        assert rep.holds

    def test_massart_beta_half_reduces_to_excess_comparison(self):
        d = sect7_nonadversarial(0.1)
        spec = HypothesisSpec(ALL)
        h = LinearHypothesis((-5.0,), 0.0)
        rep = assemble_bound(Target.ZERO_ONE, quadratic(), spec, d, h, massart=0.5)
        r01, _ = risk(ZERO_ONE, h, d, Exact())
        rq, _ = risk(quadratic(), h, d, Exact())
        if rep.saturated:
            assert rep.rhs == pytest.approx(1.0)
        else:
            assert rep.rhs == pytest.approx(rq, abs=1e-6)
        assert rep.lhs == pytest.approx(r01, abs=1e-8)
        assert rep.holds
        assert dict(rep.provenance)["massart_unsettled_mass"] == 0.0

    def test_massart_refuses_a_violating_distribution(self):
        d = singleton(0.3, 0.6)  # |eta - 1/2| = 0.1 < 0.25
        spec = HypothesisSpec(ALL)
        h = LinearHypothesis((1.0,), 0.0)
        with pytest.raises(ValueError, match=r"\|eta - 1/2\| >= 0.25 on mass 1 \(at x = 0.3, for one\)"):
            assemble_bound(Target.ZERO_ONE, quadratic(), spec, d, h, massart=0.25)
        plain = assemble_bound(Target.ZERO_ONE, quadratic(), spec, d, h)
        assert "massart_unsettled_mass" not in dict(plain.provenance)
        # at |eta - 1/2| = beta exactly the condition holds: 0.6*0.4 - 0.4*0.6 is 0, not > 0
        rep = assemble_bound(Target.ZERO_ONE, quadratic(), spec, d, h, massart=0.1)
        assert dict(rep.provenance)["massart_unsettled_mass"] == 0.0

    def test_massart_refusal_sums_the_atoms_at_a_location(self):
        d = LabeledDistribution.from_atoms([(0.0, 1.0, 0.5)])  # two atoms at x = 0, of mass 1/2 each
        h = LinearHypothesis((1.0,), 0.0)
        with pytest.raises(ValueError, match=r"on mass 1 \(at x = 0.0, for one\)"):
            assemble_bound(Target.ZERO_ONE, quadratic(), HypothesisSpec(ALL), d, h, massart=0.5)

    def test_massart_skips_zero_weight_atoms(self):
        # no mass sits at x = 0, where eta is 1/2 by convention
        d = LabeledDistribution((Component(1.0, 1, Atom(0.5)), Component(0.0, -1, Atom(0.0))))
        assert _massart_masses(d, 0.5) == (0.0, 0.0, None)

    @pytest.mark.parametrize("beta", [0.5, 0.25, 0.1])
    @pytest.mark.parametrize(
        "dist",
        [
            sect7_nonadversarial(0.2),
            sect7_nonadversarial(0.02),
            sect7_adversarial(0.2),
            sect7_adversarial(0.02),
            # overlapping lobes: eta crosses 1/2 inside the support
            LabeledDistribution(
                (
                    Component(0.4, 1, TruncNormal(-1.0, 1.0, 0.2, 0.3)),
                    Component(0.4, -1, TruncNormal(-0.5, 1.0, -0.1, 0.4)),
                    Component(0.1, 1, Atom(0.0)),
                    Component(0.1, -1, Atom(0.0)),
                )
            ),
        ],
        ids=["nonadv-0.2", "nonadv-0.02", "adv-0.2", "adv-0.02", "overlap"],
    )
    def test_massart_mass_matches_a_dense_midpoint_rule(self, dist, beta):
        # the violating mass by definition: the atoms' eta by the scalar rule, and the
        # densities' mass where |eta - 1/2| < beta by the midpoint rule on 400,000
        # cells of [-1, 1]; each of the at most four edges of the set and of the
        # supports costs at most one cell's mass, 5e-6 times the largest density (< 1)
        n = 400_000
        xs = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
        p_pos = sum(c.weight * c.law.pdf(xs) for c in dist.continuous() if c.label > 0)
        p_neg = sum(c.weight * c.law.pdf(xs) for c in dist.continuous() if c.label < 0)
        total = p_pos + p_neg
        eta = np.divide(p_pos, total, out=np.full(n, 0.5), where=total > 0.0)
        want = float(np.sum(np.where((total > 0.0) & (np.abs(eta - 0.5) < beta), total, 0.0))) * (2.0 / n)
        locs = {c.law.x for c in dist.atoms() if c.weight > 0.0}
        want += sum(c.weight for c in dist.atoms() if abs(_eta_reference(dist, c.law.x) - 0.5) < beta)
        got, unsettled, where = _massart_masses(dist, beta)
        assert unsettled < 1e-10
        assert got == pytest.approx(want, abs=2e-5)
        assert (got > 0.0) == (want > 0.0) == (where is not None)
        if where in locs:
            assert abs(_eta_reference(dist, where) - 0.5) < beta
        elif where is not None:
            assert abs(dist.eta(np.array([where]))[0] - 0.5) < beta

    def test_massart_check_sees_a_narrow_band(self):
        # eta crosses (0.25, 0.75) on about [0.100075, 0.100185], a band of mass 3.4e-7
        # between the points 0.1 and 0.1002 of a grid of spacing 2e-4
        dist = LabeledDistribution((Component(0.5, 1, TruncNormal(-1.0, 1.0, 0.10263, 0.0005)),
                                    Component(0.5, -1, TruncNormal(-1.0, 1.0, 0.09763, 0.0005))))
        xs = np.linspace(0.10008, 0.10018, 11)
        assert np.all(np.abs(dist.eta(xs) - 0.5) < 0.25)
        got, unsettled, where = _massart_masses(dist, 0.25)
        assert abs(got - 3.4e-7) < 1e-8 and unsettled < 1e-12 and 0.10007 < where < 0.10019
        h = LinearHypothesis((1.0,), -0.1)
        with pytest.raises(ValueError, match=r"on mass 3\.4\d*e-07"):
            assemble_bound(Target.ZERO_ONE, quadratic(), HypothesisSpec(ALL), dist, h, massart=0.25)

    @pytest.mark.parametrize("n", [1, 1.5, True])
    def test_degenerate_monte_carlo_size_rejected(self, n):
        with pytest.raises(ValueError):
            MonteCarlo(n)

    @pytest.mark.parametrize("seed", [1.9, 1.0, True, np.float64(1.0)])
    def test_non_integer_monte_carlo_seed_rejected(self, seed):
        # a uint64 key would truncate it to seed 1 and repeat that stream
        with pytest.raises(ValueError, match="Monte Carlo seed must be an integer"):
            MonteCarlo(5000, seed=seed)

    def test_numpy_integer_monte_carlo_seed_is_the_int_seed(self):
        d, h = sect7_nonadversarial(0.1), LinearHypothesis((-0.9,), 0.1)
        want = risk(hinge(), h, d, MonteCarlo(5000, seed=7))
        for seed in (np.int64(7), np.uint64(7)):
            assert risk(hinge(), h, d, MonteCarlo(5000, seed=seed)) == want

    def test_saturated_transform_still_valid(self):
        # far-from-optimal quadratic risk exceeds T(1); the report clamps and flags
        d = sect7_nonadversarial(0.1)
        spec = HypothesisSpec(ALL)
        h = LinearHypothesis((-5.0,), 0.0)
        rep = assemble_bound(Target.ZERO_ONE, quadratic(), spec, d, h, massart=0.5)
        assert rep.saturated
        assert rep.rhs == pytest.approx(1.0)
        assert rep.holds

    def test_monte_carlo_mode_reproducible(self):
        from hcbounds.distributions import Component, LabeledDistribution, TruncNormal

        d = LabeledDistribution(
            (
                Component(0.5, 1, TruncNormal(0.2, 1.0, 0.3, 0.2)),
                Component(0.5, -1, TruncNormal(-1.0, -0.2, -0.3, 0.2)),
            )
        )
        spec = HypothesisSpec(ALL)
        h = LinearHypothesis((2.0,), -0.5)  # imperfect: errs on part of the +1 lobe
        mode = MonteCarlo(50_000, 7)
        rep1 = assemble_bound(Target.ZERO_ONE, quadratic(), spec, d, h, massart=0.5, mode=mode)
        rep2 = assemble_bound(Target.ZERO_ONE, quadratic(), spec, d, h, massart=0.5, mode=mode)
        assert rep1 == rep2
        assert not rep1.saturated
        assert rep1.mc_stderr_lhs > 0 and rep1.mc_stderr_rhs > 0
        assert rep1.holds

    def test_adversarial_massart_bound(self):
        d = sect7_adversarial(0.1, 0.1)
        spec = HypothesisSpec(LIN, W=5.0, B=1.0, gamma=0.1)
        h = LinearHypothesis((-5.0,), 0.0)
        for loss in (hinge(), sigmoid(1.0)):
            rep = assemble_bound(Target.ADVERSARIAL_ZERO_ONE, loss, spec, d, h, massart=0.5)
            assert rep.holds

    def test_impossible_combinations_rejected(self):
        d = sect7_adversarial(0.1, 0.1)
        spec = HypothesisSpec(LIN, W=5.0, B=1.0, gamma=0.1)
        h = LinearHypothesis((-5.0,), 0.0)
        with pytest.raises(NegativeResultError):
            assemble_bound(Target.ADVERSARIAL_ZERO_ONE, hinge(), spec, d, h)
        with pytest.raises(NegativeResultError):
            assemble_bound(Target.ADVERSARIAL_ZERO_ONE, exponential(), spec, d, h, massart=0.5)

    def test_monotone_tightening_in_bias(self):
        # hinge RHS is non-increasing in B on (0, 1] for fixed h and distribution
        d = LabeledDistribution.from_atoms(((0.3, 0.55, 0.85), (-0.6, 0.45, 0.2)))
        h = LinearHypothesis((0.6,), -0.25)
        prev = math.inf
        for B in (0.3, 0.5, 0.8, 1.0):
            rep = assemble_bound(Target.ZERO_ONE, hinge(), HypothesisSpec(LIN, W=1.0, B=B), d, h)
            assert rep.rhs <= prev + 1e-9
            prev = rep.rhs


def _shift_zero_one_best_in_class(monkeypatch, delta):
    real = bounds.best_in_class_risk

    def shifted(loss, *args, **kwargs):
        got = real(loss, *args, **kwargs)
        return dataclasses.replace(got, value=got.value + delta) if isinstance(loss, ZeroOneLoss) else got

    monkeypatch.setattr(bounds, "best_in_class_risk", shifted)


class TestZeroOneBestInClassCancels:
    """For a linear class the zero-one best-in-class value R* enters lhs as
    -R* and rhs through M_target = R* - E[C*] as -R*, and the verdict reads
    neither: slack and holds come from R_target(h) - E[C*], so moving R* by
    delta moves lhs and M_target and leaves slack bit-identical.  With the
    unrestricted class (``--class all``) R* is E[C*] itself and M_target is
    exactly 0, so moving E[C*] moves lhs and slack by delta."""

    @pytest.mark.parametrize(
        "target, loss, spec, dist, h",
        [
            (Target.ZERO_ONE, hinge(), HypothesisSpec(LIN, W=1.0, B=0.5), sect7_nonadversarial(0.1),
             LinearHypothesis((-0.6,), 0.1)),
            (Target.ADVERSARIAL_ZERO_ONE, rho_margin(1.0), HypothesisSpec(LIN, W=1.0, B=0.5, gamma=0.1),
             sect7_adversarial(0.1, 0.1), LinearHypothesis((0.7,), -0.2)),
        ],
        ids=["hinge-linear", "sup-rho-margin-adversarial-linear"],
    )
    def test_linear_class_slack_moves_by_rounding_only(self, monkeypatch, target, loss, spec, dist, h):
        base = assemble_bound(target, loss, spec, dist, h)
        for delta in (1e-3, -0.05, 0.2):
            _shift_zero_one_best_in_class(monkeypatch, delta)
            rep = assemble_bound(target, loss, spec, dist, h)
            monkeypatch.undo()
            assert rep.lhs == pytest.approx(base.lhs - delta, abs=1e-12)
            assert rep.m_target == pytest.approx(base.m_target + delta, abs=1e-12)
            assert rep.slack == base.slack
            assert rep.holds == base.holds

    def test_unrestricted_class_slack_moves_with_the_zero_one_expectation(self, monkeypatch):
        base = assemble_bound(*_ALL_CASE)
        real = bounds._expect_min_conditional

        def shifted(loss, *args):
            val, err = real(loss, *args)
            return (val + 0.05 if isinstance(loss, ZeroOneLoss) else val), err

        monkeypatch.setattr(bounds, "_expect_min_conditional", shifted)
        rep = assemble_bound(*_ALL_CASE)
        assert rep.m_target == base.m_target == 0.0
        assert rep.lhs == pytest.approx(base.lhs - 0.05, abs=1e-12)
        assert rep.slack == pytest.approx(base.slack + 0.05, abs=1e-12)

    def test_unrestricted_class_integrates_the_zero_one_expectation_once(self, monkeypatch):
        """R*_01,H of the unrestricted class is E[C*_01]: the report runs that
        integral once, and its quad_err counts it once."""
        target, loss, spec, dist, h = _ALL_CASE
        real = bounds._expect_min_conditional
        e01_err, e_surr_err = (real(l, spec, dist)[1] for l in (ZERO_ONE, loss))
        r_surr_err = risk(loss, h, dist, Exact(), with_error=True)[2]
        calls = []
        monkeypatch.setattr(bounds, "_expect_min_conditional", lambda l, *args: calls.append(l) or real(l, *args))
        rep = assemble_bound(*_ALL_CASE)
        assert sum(isinstance(l, ZeroOneLoss) for l in calls) == 1
        assert dict(rep.provenance)["quad_err"] == r_surr_err + e01_err + e_surr_err


_ALL_CASE = (Target.ZERO_ONE, quadratic(), HypothesisSpec(ALL), sect7_nonadversarial(0.1),
             LinearHypothesis((-5.0,), 0.0))
_NONADV_CASE = (HypothesisSpec(LIN, W=1.0, B=0.5), sect7_nonadversarial(0.05), LinearHypothesis((-0.8,), 0.1))
_ADV_SPEC = HypothesisSpec(LIN, W=1.0, B=0.5, gamma=0.1)
_ADV_CASE = (_ADV_SPEC, sect7_adversarial(0.1, 0.1), LinearHypothesis((0.7,), -0.2))
_VERDICT_CASES = {
    "hinge-linear": (Target.ZERO_ONE, hinge(), *_NONADV_CASE, None, Exact()),
    "logistic-linear": (Target.ZERO_ONE, logistic(), *_NONADV_CASE, None, Exact()),
    "quadratic-linear": (Target.ZERO_ONE, quadratic(), *_NONADV_CASE, None, Exact()),
    "sup-rho-margin-adversarial-linear": (Target.ADVERSARIAL_ZERO_ONE, rho_margin(1.0), *_ADV_CASE, None, Exact()),
    "mc-sup-hinge-massart": (
        Target.ADVERSARIAL_ZERO_ONE, hinge(), _ADV_SPEC, sect7_adversarial(0.1, 0.1),
        LinearHypothesis((-0.9,), -0.3), 0.5, MonteCarlo(20000, seed=3),
    ),
    "mc-sup-hinge-massart-saturated": (
        Target.ADVERSARIAL_ZERO_ONE, hinge(), *_ADV_CASE, 0.5, MonteCarlo(20000, seed=3),
    ),
}
_VERDICT_FLOATS = ("lhs", "rhs", "slack", "mc_stderr_lhs", "mc_stderr_rhs")
# (lhs, rhs, slack, mc_stderr_lhs, mc_stderr_rhs) as float.hex(), holds,
# saturated; computed while assemble_bound still ran the surrogate search
_VERDICT_PINS = {
    "hinge-linear": ("0x1.7bdbf7f60dfbcp-2", "0x1.154a6bacd3116p+0", "0x1.6ca6db5e9f24ep-1",
                     "0x0.0p+0", "0x0.0p+0", True, False),
    "logistic-linear": ("0x1.7bdbf7f60dfbcp-2", "0x1.8eaf67e5b9320p+1", "0x1.5f33e8e6f7728p+1",
                        "0x0.0p+0", "0x0.0p+0", True, False),
    "quadratic-linear": ("0x1.7bdbf7f60dfbcp-2", "0x1.fef0612bc4a94p-1", "0x1.41026530bdab6p-1",
                         "0x0.0p+0", "0x0.0p+0", True, False),
    "sup-rho-margin-adversarial-linear": ("0x1.fffffffffffb2p-4", "0x1.a86824dfa2ff6p-1",
                                          "0x1.686824dfa3000p-1", "0x0.0p+0", "0x0.0p+0", True, False),
    "mc-sup-hinge-massart": ("0x1.18fc504816dc6p-6", "0x1.73f8933f7cff6p-1", "0x1.6b30b0bd3c488p-1",
                             "0x1.e1541015e2387p-11", "0x1.a269957f06f8bp-9", True, False),
    "mc-sup-hinge-massart-saturated": ("0x1.f9a6b50b0f22ep-4", "0x1.ffffffffffff6p-1",
                                       "0x1.c0cb295e9e1b0p-1", "0x1.30e336024f2fdp-9", "0x0.0p+0",
                                       True, True),
}
# Fields that moved since: the Gauss-Kronrod quadrature (E[C*] to within
# 1e-11), then the exact affine inverse replacing a 1e-12 bisection of the
# forward transform, then the quadrature's 4-way panel refinement, then the
# closed-form E[C*] on label-pure components.  The new hex; the pin above
# stays as the anchor, within 1e-10 of it.
_VERDICT_REPINS = {
    "hinge-linear": {"rhs": "0x1.154a6bacd3114p+0", "slack": "0x1.6ca6db5e9f24ap-1"},
    "mc-sup-hinge-massart": {"rhs": "0x1.73f8933f824abp-1", "slack": "0x1.6b30b0bd4193dp-1"},
    "sup-rho-margin-adversarial-linear": {"rhs": "0x1.a86824dfa9a23p-1", "slack": "0x1.686824dfa9a2dp-1"},
}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="rho-margin's standard route is the one E[C*] left on the quadrature, which is not split where "
    "the score bound W|x| + B meets rho, so a kink inside the first panel's outer node gap is never sampled",
)
def test_expected_min_conditional_sees_the_score_bound_kink():
    # benchmark pool op rho-margin/linear (slot 28, position 3): the minimal
    # conditional risk is nonzero only on |x| in [0.1, 0.10085]
    loss = rho_margin(0.7959584781912772)
    spec = HypothesisSpec(LIN, W=2.5784703113736116, B=0.5359267221846399)
    dist = sect7_nonadversarial(0.1)
    rep = assemble_bound(Target.ZERO_ONE, loss, spec, dist,
                         LinearHypothesis((0.3625695023656945,), 0.2640957738521452))
    kink = (loss.rho - spec.B) / spec.W
    want = expectation(
        dist, lambda x, e: min_risk_symmetric(loss, spec.score_bound(np.abs(x)), e), points=(-kink, kink)
    )
    assert want == pytest.approx(8.118e-6, rel=1e-3)
    assert rep.e_cstar_surrogate == pytest.approx(want, rel=1e-6)


def _count_best_in_class_calls(monkeypatch):
    calls = []
    real = bounds.best_in_class_risk

    def counting(loss, *args, **kwargs):
        calls.append(loss)
        return real(loss, *args, **kwargs)

    monkeypatch.setattr(bounds, "best_in_class_risk", counting)
    return calls


class TestStreamedMonteCarlo:
    """Monte Carlo risks reduce each sampling block on its worker to
    (count, mean, M2) and merge the blocks in order."""

    LOSSES = (ZERO_ONE, quadratic(), hinge(), logistic(), rho_margin(0.5))
    H = LinearHypothesis((-0.9,), -0.3)
    CASES = {
        "nonadv": (sect7_nonadversarial(0.05), False, 0.0),
        "adv": (sect7_adversarial(0.1, 0.1), True, 0.1),
    }

    @pytest.fixture
    def four_cpus(self, monkeypatch):
        # HCB_THREADS is clamped to the CPU count; 4 lets 2 mean 2 workers
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        return monkeypatch

    @pytest.mark.parametrize("n", [3 * _SAMPLE_BLOCK + 17, (1 << 20) + 5])  # the second crosses a chunk
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits_identical_at_every_thread_count(self, four_cpus, case, n):
        dist, adversarial, gamma = self.CASES[case]
        got = {}
        for threads in ("1", "2"):
            four_cpus.setenv("HCB_THREADS", threads)
            stats = _mc_risks(self.LOSSES, self.H, dist, MonteCarlo(n, 4), gamma)
            got[threads] = [(mean.hex(), se.hex()) for mean, se in stats]
        assert got["1"] == got["2"]

    @pytest.mark.parametrize(
        "n", [2, 3, 1000, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 3 * _SAMPLE_BLOCK + 17, (1 << 20) + 5]
    )
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_whole_sample_statistics(self, case, n):
        dist, adversarial, gamma = self.CASES[case]
        stats = _mc_risks(self.LOSSES, self.H, dist, MonteCarlo(n, 4), gamma)
        xs, ys = sample(dist, n, 4)
        for loss, (mean, se) in zip(self.LOSSES, stats):
            vals = _loss_values(loss, *_score_kernel(self.H.w, self.H.b, xs, ys, gamma))
            want_mean, want_se = float(np.mean(vals)), float(np.std(vals, ddof=1)) / math.sqrt(n)
            if n <= _SAMPLE_BLOCK:  # one block: the same operations as np.mean and np.std
                assert (mean.hex(), se.hex()) == (want_mean.hex(), want_se.hex()), loss
            else:  # merged blocks: rounding only
                assert abs(mean - want_mean) <= 1e-15 * abs(want_mean), loss
                assert abs(se - want_se) <= 1e-15 * abs(want_se), loss

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_risk_and_assemble_bound_agree(self, case):
        dist, adversarial, gamma = self.CASES[case]
        # the two Monte Carlo kinds of the benchmark's bound workload
        if adversarial:
            target, loss, spec = Target.ADVERSARIAL_ZERO_ONE, hinge(), _ADV_SPEC
        else:
            target, loss, spec = Target.ZERO_ONE, quadratic(), HypothesisSpec(ALL)
        mode = MonteCarlo(3 * _SAMPLE_BLOCK + 17, seed=9)
        rep = assemble_bound(target, loss, spec, dist, self.H, massart=0.5, mode=mode)
        r_target, se_target = risk(ZERO_ONE, self.H, dist, mode, gamma)
        r_surr, _ = risk(loss, self.H, dist, mode, gamma)
        star = best_in_class_risk(ZERO_ONE, spec, dist).value
        assert rep.r_surrogate == r_surr
        assert (rep.lhs, rep.mc_stderr_lhs) == (r_target - star, se_target)

    def test_memory_does_not_grow_with_n(self, monkeypatch):
        monkeypatch.setenv("HCB_THREADS", "1")
        dist = sect7_nonadversarial(0.05)
        risk(quadratic(), self.H, dist, MonteCarlo(1000, 1))  # first-call imports
        peaks = []
        for n in (2 * _SAMPLE_BLOCK, (1 << 20) + 5):
            tracemalloc.start()
            try:
                risk(quadratic(), self.H, dist, MonteCarlo(n, 1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # whole arrays of 2^20 draws alone would take 16 MB
        assert peaks[1] <= 1.1 * peaks[0] < 8 * _SAMPLE_BLOCK * 10


class TestVerdictRule:
    """Assembled bounds and the sweeps judge lhs <= rhs by one rule."""

    def test_three_standard_errors_plus_rounding(self):
        assert _holds(1.0, 1.0, 0.0, 0.0)
        assert _holds(1.0 + 1e-9, 1.0, 0.0, 0.0)
        assert not _holds(1.0 + 2e-9, 1.0, 0.0, 0.0)
        assert _holds(1.3, 1.0, 0.05, 0.05)
        assert not _holds(1.31, 1.0, 0.05, 0.05)

    def test_assemble_bound_and_sweeps_use_it(self, monkeypatch):
        from hcbounds import experiments

        calls = []

        def recording(lhs, rhs, se_lhs, se_rhs):
            calls.append((lhs, rhs, se_lhs, se_rhs))
            return False

        monkeypatch.setattr(bounds, "_holds", recording)
        monkeypatch.setattr(experiments, "_holds", recording)
        target, loss, spec, dist, h, massart, mode = _VERDICT_CASES["mc-sup-hinge-massart"]
        rep = assemble_bound(target, loss, spec, dist, h, massart=massart, mode=mode)
        assert not rep.holds
        # the verdict's sides are R_t(h) - E[C*_t] and Gamma(y): no R*, so slack is their difference
        [(a, b, se_lhs, se_rhs)] = calls
        assert (b - a).hex() == rep.slack.hex()
        assert (se_lhs, se_rhs) == (rep.mc_stderr_lhs, rep.mc_stderr_rhs)
        rows = experiments.run_nonadversarial_sweep(experiments.SweepConfig(sigmas=(0.2,), n_samples=10**4))
        assert not any(r["holds"] for r in rows)
        assert calls[1:] == [(r["lhs"], r["rhs"], r["stderr_lhs"], r["stderr_rhs"]) for r in rows]

    # h = 0 in a class with W = B: R_s(h) - E[C*_s] is a difference of two
    # quadratures that agree to rounding, and Gamma's slope, about 1/B,
    # scales that rounding into rhs
    @pytest.mark.parametrize("loss", MARGIN_LOSSES, ids=lambda l: l.label())
    def test_tiny_bias_budget_holds_where_the_rounding_is_small(self, loss):
        spec = HypothesisSpec(LIN, W=1e-12, B=1e-12)
        h = LinearHypothesis((0.0,), 0.0)
        assert assemble_bound(Target.ZERO_ONE, loss, spec, sect7_nonadversarial(0.05), h).holds

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="y rounds to exactly 0 and the verdict reads no "
                       "rounding allowance through Gamma's slope (ROADMAP item 11's slack_err)")
    def test_tiny_bias_budget_holds(self):
        # at B = 1e-20 every loss reports lhs 0.375 > rhs -0.125 (exit 1 from the CLI)
        spec = HypothesisSpec(LIN, W=1e-20, B=1e-20)
        for loss in MARGIN_LOSSES:
            assert assemble_bound(Target.ZERO_ONE, loss, spec, sect7_nonadversarial(0.05),
                                  LinearHypothesis((0.0,), 0.0)).holds, loss.label()


class TestVerdictPath:
    """slack and holds read R(h) - E[C*] of both losses: both best-in-class
    risks cancel.  assemble_bound searches the zero-one target alone, for
    its report-only lhs, M_target and best_in_class_tol, and surrogate_split
    runs the surrogate search on request."""

    def test_relu_class_refused_before_any_risk(self, monkeypatch):
        # no zero-one R*_H route, and no rule for whether a linear h lies in the ReLU class
        def no_risk(*args, **kwargs):
            raise AssertionError("a risk was computed")

        for name in ("risk", "_mc_risks", "_expect_min_conditional", "best_in_class_risk"):
            monkeypatch.setattr(bounds, name, no_risk)
        spec = HypothesisSpec(HypothesisClass.ONE_HIDDEN_RELU, W=5.0, B=0.5, Lambda=2.0)
        with pytest.raises(ValueError, match="ReLU class"):
            assemble_bound(Target.ZERO_ONE, hinge(), spec, sect7_nonadversarial(0.1), LinearHypothesis((-0.4,), 0.0))

    @pytest.mark.parametrize(
        "name", ["hinge-linear", "sup-rho-margin-adversarial-linear", "mc-sup-hinge-massart"]
    )
    def test_only_the_zero_one_target_is_searched(self, monkeypatch, name):
        target, loss, spec, dist, h, massart, mode = _VERDICT_CASES[name]
        calls = _count_best_in_class_calls(monkeypatch)
        assemble_bound(target, loss, spec, dist, h, massart=massart, mode=mode)
        assert len(calls) == 1 and isinstance(calls[0], ZeroOneLoss)

    @pytest.mark.parametrize("name", sorted(_VERDICT_PINS))
    def test_verdict_fields_pinned(self, name):
        target, loss, spec, dist, h, massart, mode = _VERDICT_CASES[name]
        rep = assemble_bound(target, loss, spec, dist, h, massart=massart, mode=mode)
        got = tuple(float(getattr(rep, f)).hex() for f in _VERDICT_FLOATS) + (rep.holds, rep.saturated)
        repins = _VERDICT_REPINS.get(name, {})
        want = tuple(repins.get(f, pin) for f, pin in zip(_VERDICT_FLOATS, _VERDICT_PINS[name]))
        assert got == want + _VERDICT_PINS[name][len(_VERDICT_FLOATS):]
        for f, pin in zip(_VERDICT_FLOATS, _VERDICT_PINS[name]):
            assert abs(float.fromhex(repins.get(f, pin)) - float.fromhex(pin)) <= 1e-10

    @pytest.mark.parametrize("name", sorted(_VERDICT_CASES))
    def test_quadrature_error_in_provenance(self, name):
        target, loss, spec, dist, h, massart, mode = _VERDICT_CASES[name]
        rep = assemble_bound(target, loss, spec, dist, h, massart=massart, mode=mode)
        quad_err = dict(rep.provenance)["quad_err"]
        assert math.isfinite(quad_err) and 0.0 <= quad_err <= 1e-8

    @pytest.mark.parametrize("name", ["hinge-linear", "sup-rho-margin-adversarial-linear"])
    def test_split_searches_the_surrogate_once(self, monkeypatch, name):
        target, loss, spec, dist, h, massart, mode = _VERDICT_CASES[name]
        rep = assemble_bound(target, loss, spec, dist, h, massart=massart, mode=mode)
        calls = _count_best_in_class_calls(monkeypatch)
        excess, gap, tol = surrogate_split(rep, loss, spec, dist)
        assert calls == [loss]
        star = best_in_class_risk(loss, spec, dist)
        assert (excess, gap, tol) == (rep.r_surrogate - star.value, star.value - rep.e_cstar_surrogate, star.tol)
        assert excess + gap == pytest.approx(rep.r_surrogate - rep.e_cstar_surrogate, abs=1e-15)
        assert gap >= -1e-6

    def test_unrestricted_split_needs_no_search(self, monkeypatch):
        spec = HypothesisSpec(ALL)
        rep = assemble_bound(Target.ZERO_ONE, quadratic(), spec, sect7_nonadversarial(0.1),
                             LinearHypothesis((-5.0,), 0.0))
        calls = _count_best_in_class_calls(monkeypatch)
        split = surrogate_split(rep, quadratic(), spec, sect7_nonadversarial(0.1))
        assert calls == []
        assert split == (rep.r_surrogate - rep.e_cstar_surrogate, 0.0, 0.0)


# Massart logistic/exponential bounds with beta < 1/2, where Gamma reaches the
# entropy and exp_branch inverses: (loss, beta, w of h = w*x) -> (rhs, slack)
# as float.hex(), holds, saturated, computed when Gamma bisected the forward
# transform to 1e-12.  The chord cases have y < T(2*beta), the base cases y
# in (T(2*beta), T(1)).
_MASSART_DIST = LabeledDistribution.from_atoms(((0.5, 0.5, 0.95), (-0.4, 0.5, 0.05)))
_MASSART_PINS = {
    ("logistic", 0.1, 6.0, "chord"): ("0x1.5576de0b70000p-5", "0x1.5576de0b70000p-5", True, False),
    ("logistic", 0.1, 2.0, "base"): ("0x1.302abde1e9000p-1", "0x1.302abde1e9000p-1", True, False),
    ("logistic", 0.25, 4.0, "chord"): ("0x1.6f20abe514000p-3", "0x1.6f20abe514000p-3", True, False),
    ("logistic", 0.25, 1.0, "base"): ("0x1.809b39d207000p-1", "0x1.809b39d207000p-1", True, False),
    ("logistic", 0.4, 2.0, "chord"): ("0x1.a3e9dbb37e000p-2", "0x1.a3e9dbb37e000p-2", True, False),
    ("logistic", 0.4, 0.0, "base"): ("0x1.cccccccccd000p-1", "0x1.cccccccccd334p-2", True, False),
    ("exponential", 0.1, 3.0, "chord"): ("0x1.4cdb7ddd18000p-4", "0x1.4cdb7ddd18000p-4", True, False),
    ("exponential", 0.1, 1.0, "base"): ("0x1.52262f3f9d000p-1", "0x1.52262f3f9d000p-1", True, False),
    ("exponential", 0.25, 3.0, "chord"): ("0x1.f5f798b060000p-6", "0x1.f5f798b060000p-6", True, False),
    ("exponential", 0.25, 1.0, "base"): ("0x1.52262f3f9d000p-1", "0x1.52262f3f9d000p-1", True, False),
    ("exponential", 0.4, 2.0, "chord"): ("0x1.36cd9908c4000p-3", "0x1.36cd9908c4000p-3", True, False),
    ("exponential", 0.4, 0.0, "base"): ("0x1.cccccccccd000p-1", "0x1.cccccccccd334p-2", True, False),
}


class TestOneGammaPath:
    @pytest.mark.parametrize("case", sorted(_MASSART_PINS), ids=lambda c: "-".join(map(str, c)))
    def test_massart_entropy_and_exp_branch_inverses_pinned(self, case):
        name, beta, w, segment = case
        loss = {"logistic": logistic(), "exponential": exponential()}[name]
        spec = HypothesisSpec(ALL)
        rep = assemble_bound(Target.ZERO_ONE, loss, spec, _MASSART_DIST, LinearHypothesis((w,), 0.0), massart=beta)
        y = rep.r_surrogate - rep.e_cstar_surrogate
        knot = float(select_transform(loss, spec, beta)[0](2.0 * beta))
        assert (y < knot) == (segment == "chord") and y < 1.0
        rhs, slack, holds, saturated = _MASSART_PINS[case]
        assert abs(rep.rhs - float.fromhex(rhs)) <= 1e-12
        assert abs(rep.slack - float.fromhex(slack)) <= 1e-12
        assert (rep.holds, rep.saturated) == (holds, saturated)

    def test_rho_margin_has_no_massart_route(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.5, gamma=0.1)
        with pytest.raises(ValueError, match="Massart-modified worst-case transform not derived for rho-margin"):
            assemble_bound(Target.ADVERSARIAL_ZERO_ONE, rho_margin(1.0), spec, sect7_adversarial(0.1, 0.1),
                           LinearHypothesis((0.7,), -0.2), massart=0.25)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    @pytest.mark.parametrize("mode", [Exact(), MonteCarlo(2000, seed=1)], ids=["exact", "mc"])
    def test_non_finite_surrogate_risk_rejected(self, mode):
        # exp(900) overflows on the flipped-label atoms at x = -1 and x = 1
        spec = HypothesisSpec(LIN, W=1000.0, B=0.5)
        with pytest.raises(ValueError, match=r"R_surrogate\(h\) is not finite"):
            assemble_bound(Target.ZERO_ONE, exponential(), spec, sect7_nonadversarial(0.1),
                           LinearHypothesis((900.0,), 0.0), mode=mode)

    @pytest.mark.parametrize(
        "r_surr, e_cstar, quantity",
        [(0.5, math.nan, r"E\[C\*\]"), (1e308, -1e308, "Gamma's argument")],
    )
    def test_non_finite_gap_or_argument_rejected(self, monkeypatch, r_surr, e_cstar, quantity):
        real = bounds._expect_min_conditional

        def fake(loss, *args):
            return real(loss, *args) if isinstance(loss, ZeroOneLoss) else (e_cstar, 0.0)

        monkeypatch.setattr(bounds, "risk", lambda loss, *a, **k: (0.0, 0.0) if isinstance(loss, ZeroOneLoss)
                            else (r_surr, 0.0, 0.0))
        monkeypatch.setattr(bounds, "_expect_min_conditional", fake)
        with pytest.raises(ValueError, match=quantity + ".* is not finite"):
            assemble_bound(Target.ZERO_ONE, hinge(), HypothesisSpec(LIN, W=1.0, B=0.5), sect7_nonadversarial(0.1),
                           LinearHypothesis((0.5,), 0.0))


@st.composite
def _report_cases(draw):
    """(target, loss, spec, dist, h, massart, mode) on the standard, Massart
    and worst-case rho-margin routes, over linear and unrestricted classes."""
    route = draw(st.sampled_from(["standard", "massart", "sup-rho-margin"]))
    W, B = draw(st.floats(0.1, 2.0)), draw(st.floats(0.05, 1.5))
    h = LinearHypothesis((draw(st.floats(-W, W)),), draw(st.floats(-B, B)))
    mode = draw(st.sampled_from([Exact(), MonteCarlo(2000, seed=draw(st.integers(0, 99)))]))
    sigma = draw(st.sampled_from([0.2, 0.1, 0.05]))
    if route == "sup-rho-margin":
        spec = HypothesisSpec(LIN, W=W, B=B, gamma=0.1)
        return (Target.ADVERSARIAL_ZERO_ONE, rho_margin(draw(st.floats(0.2, 2.0))), spec,
                sect7_adversarial(sigma, 0.1), h, None, mode)
    if route == "massart":  # on the unrestricted class; sect7's eta is 0 or 1, so every beta holds
        loss, spec = draw(st.sampled_from([quadratic(), logistic(), exponential()])), HypothesisSpec(ALL)
        massart = draw(st.floats(0.01, 0.5))
    else:
        loss, massart = draw(st.sampled_from(MARGIN_LOSSES)), None
        spec = draw(st.sampled_from([HypothesisSpec(LIN, W=W, B=B), HypothesisSpec(ALL)]))
    return Target.ZERO_ONE, loss, spec, sect7_nonadversarial(sigma), h, massart, mode


def _same_json(a, b) -> bool:
    """a == b after a JSON round trip: tuples come back as lists, and every
    float is equal bit for bit, NaN and -0.0 included."""
    if isinstance(a, float):
        return type(b) is float and a.hex() == b.hex()
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(b) is list and len(a) == len(b) and all(map(_same_json, a, b))
    return type(b) is type(a) and a == b


class TestReportJson:
    @given(case=_report_cases())
    @settings(max_examples=25, deadline=None)
    def test_json_round_trip_is_bit_identical(self, case):
        target, loss, spec, dist, h, massart, mode = case
        report = assemble_bound(target, loss, spec, dist, h, massart=massart, mode=mode)
        doc = report.to_json_dict(surrogate_split(report, loss, spec, dist))
        assert _same_json(doc, json.loads(json.dumps(doc)))


class TestDiscretePsiBound:
    def _random_case(self, rng):
        k = int(rng.integers(1, 6))
        ws = rng.dirichlet(np.ones(k))
        atoms = tuple(
            (float(rng.uniform(-1, 1)), float(ws[j]), float(rng.uniform(0, 1))) for j in range(k)
        )
        dist = LabeledDistribution.from_atoms(atoms)
        spec = HypothesisSpec(LIN, W=1.0, B=float(rng.uniform(0.2, 1.5)))
        hyps = [
            LinearHypothesis((float(rng.uniform(-spec.W, spec.W)),), float(rng.uniform(-spec.B, spec.B)))
            for _ in range(6)
        ]
        return dist, spec, hyps

    def test_holds_with_matching_transform(self):
        rng = np.random.default_rng(20)
        losses = [hinge(), logistic(), exponential(), quadratic(), sigmoid(1.0), rho_margin(1.0)]
        for trial in range(12):
            dist, spec, hyps = self._random_case(rng)
            loss = losses[trial % len(losses)]
            psi = transform(loss, spec)
            res = verify_psi_bound_discrete(dist, loss, spec, psi, hyps)
            assert res.precondition_ok
            assert res.holds
            assert res.max_bound_slack <= 1e-10

    def test_scaled_transform_flagged(self):
        # doubling the transform breaks the pointwise condition at an atom with
        # small reach and a barely-negative score
        dist = LabeledDistribution.from_atoms(((0.2, 0.6, 0.9), (0.7, 0.4, 0.2)))
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        psi2 = scaled(transform(hinge(), spec), 2.0)
        hyps = [LinearHypothesis((1.0,), -0.21)]  # score -0.01 at x=0.2
        res = verify_psi_bound_discrete(dist, hinge(), spec, psi2, hyps)
        assert not res.precondition_ok
        assert res.violations
        atom_idx, hyp_idx, gap = res.violations[0]
        assert atom_idx == 0 and hyp_idx == 0 and gap > 0

    def test_single_atom_reduces_to_pointwise(self):
        dist = LabeledDistribution.from_atoms(((0.5, 1.0, 0.85),))
        spec = HypothesisSpec(LIN, W=1.0, B=0.6)
        psi = transform(quadratic(), spec)
        hyps = [LinearHypothesis((-0.5,), 0.1)]
        res = verify_psi_bound_discrete(dist, quadratic(), spec, psi, hyps)
        assert res.holds and res.precondition_ok

    def test_hypothesis_outside_class_rejected(self):
        dist = LabeledDistribution.from_atoms(((0.2, 1.0, 0.9),))
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        with pytest.raises(ValueError, match="outside the class"):
            verify_psi_bound_discrete(dist, hinge(), spec, transform(hinge(), spec), [LinearHypothesis((1.5,), 0.0)])

    def test_score_outside_relu_range_rejected(self):
        dist = LabeledDistribution.from_atoms(((0.2, 1.0, 0.9),))
        spec = HypothesisSpec(HypothesisClass.ONE_HIDDEN_RELU, W=1.0, B=0.5, Lambda=1.0)
        psi = transform(hinge(), spec)
        assert verify_psi_bound_discrete(dist, hinge(), spec, psi, [LinearHypothesis((0.5,), 0.6)]).holds  # 0.7 = reach
        with pytest.raises(ValueError, match="attainable range"):
            verify_psi_bound_discrete(dist, hinge(), spec, psi, [LinearHypothesis((0.5,), 0.65)])

    def test_continuous_component_rejected(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        with pytest.raises(ValueError, match="atom-only"):
            verify_psi_bound_discrete(sect7_nonadversarial(0.1), hinge(), spec, transform(hinge(), spec),
                                      [LinearHypothesis((0.5,), 0.0)])

    def test_repeated_location_uses_its_eta(self):
        # the two triples at x = 0.2 are one location with eta = 1/2, where
        # h = -x has zero regret under both losses
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        psi, hyps = transform(hinge(), spec), [LinearHypothesis((-1.0,), 0.0)]
        split = verify_psi_bound_discrete(
            LabeledDistribution.from_atoms(((0.2, 0.5, 0.9), (0.2, 0.5, 0.1))), hinge(), spec, psi, hyps
        )
        whole = verify_psi_bound_discrete(LabeledDistribution.from_atoms(((0.2, 1.0, 0.5),)), hinge(), spec, psi, hyps)
        assert (split.holds, split.precondition_ok, split.violations) == (whole.holds, whole.precondition_ok, ())
        assert split.max_bound_slack == pytest.approx(whole.max_bound_slack, abs=1e-15)
        assert whole.max_bound_slack == pytest.approx(0.0, abs=1e-15)

    def test_violations_index_locations_in_first_appearance_order(self):
        # test_scaled_transform_flagged's distribution, x = 0.7 listed first
        # and each location split in two: the violation moves to location 1
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        psi2 = scaled(transform(hinge(), spec), 2.0)
        hyps = [LinearHypothesis((1.0,), -0.21)]
        dist = LabeledDistribution.from_atoms(((0.2, 0.6, 0.9), (0.7, 0.4, 0.2)))
        shuffled = LabeledDistribution.from_atoms(((0.7, 0.1, 0.2), (0.2, 0.3, 0.9), (0.7, 0.3, 0.2), (0.2, 0.3, 0.9)))
        ((loc, hyp, gap),) = verify_psi_bound_discrete(dist, hinge(), spec, psi2, hyps).violations
        ((loc2, hyp2, gap2),) = verify_psi_bound_discrete(shuffled, hinge(), spec, psi2, hyps).violations
        assert (loc, hyp, loc2, hyp2) == (0, 0, 1, 0)
        assert gap2 == pytest.approx(gap, abs=1e-15)

    def test_pointwise_gaps_match_scalar_forms(self):
        # the array precondition against a scalar double loop over hypotheses
        # and distinct locations; the doubled transform makes many violations
        rng = np.random.default_rng(31)
        losses = [hinge(), quadratic(), sigmoid(1.0), rho_margin(1.0)]
        flagged = 0
        for trial in range(24):
            k = int(rng.integers(1, 7))
            # a coarse x grid, so that some triples share a location
            atoms = tuple(zip(rng.choice(np.linspace(-1.0, 1.0, 9), k), rng.dirichlet(np.ones(k)), rng.uniform(0, 1, k)))
            dist = LabeledDistribution.from_atoms(atoms)
            spec = HypothesisSpec(LIN, W=1.0, B=float(rng.uniform(0.2, 1.5)))
            hyps = [LinearHypothesis((float(rng.uniform(-1, 1)),), float(rng.uniform(-spec.B, spec.B)))
                    for _ in range(8)]
            loss = losses[trial % len(losses)]
            psi2 = scaled(transform(loss, spec), 2.0)
            want = []
            locations = list(dict.fromkeys(float(x) for x, _, _ in atoms))
            for hj, h in enumerate(hyps):
                for ai, x in enumerate(locations):
                    e = dist.eta(x)
                    point, u = ConditionalPoint(abs(x), e), h.w * x + h.b
                    target = conditional_risk_zero_one(u, e) - min(e, 1.0 - e)
                    surr = conditional_risk(loss, spec, u, point) - min_conditional_risk(loss, spec, point)
                    if float(psi2(target)) - surr > 1e-10:
                        want.append((ai, hj, float(psi2(target)) - surr))
            got = verify_psi_bound_discrete(dist, loss, spec, psi2, hyps).violations
            assert [v[:2] for v in got] == [v[:2] for v in want], trial
            assert np.allclose([v[2] for v in got], [v[2] for v in want], rtol=0.0, atol=1e-12), trial
            flagged += len(got)
        assert flagged >= 50


class TestNegativeResultDemo:
    @pytest.mark.parametrize(
        "loss", [hinge(), logistic(), exponential(), quadratic(), sigmoid(1.0)], ids=lambda l: l.label()
    )
    def test_surrogate_zero_target_half(self, loss):
        spec = HypothesisSpec(LIN, W=1.0, B=1.0, gamma=0.1)
        demo = negative_result_demo(loss, spec)
        assert demo.surrogate_estimation_error == 0.0
        assert demo.target_estimation_error == 0.5
        assert demo.r_target_h0 == 1.0 and demo.r_target_star == 0.5
        # the oracle confirms the zero hypothesis is surrogate-optimal
        assert demo.oracle_surrogate_star == pytest.approx(demo.r_surrogate_star, abs=2e-3)

    def test_relu_class_supported_without_oracle(self):
        spec = HypothesisSpec(HypothesisClass.ONE_HIDDEN_RELU, W=1.0, B=1.0, Lambda=1.0, gamma=0.1)
        demo = negative_result_demo(sigmoid(1.0), spec)
        assert demo.target_estimation_error == 0.5
        assert math.isnan(demo.oracle_surrogate_star)

    def test_rejects_rho_margin_and_degenerate_specs(self):
        spec = HypothesisSpec(LIN, W=1.0, B=1.0, gamma=0.1)
        with pytest.raises(ValueError):
            negative_result_demo(rho_margin(1.0), spec)
        with pytest.raises(ValueError):
            negative_result_demo(hinge(), HypothesisSpec(LIN, W=1.0, B=0.0, gamma=0.1))
        with pytest.raises(ValueError):
            negative_result_demo(hinge(), HypothesisSpec(LIN, W=1.0, B=1.0))

    @pytest.mark.filterwarnings("error")
    def test_unbounded_bias_rejected_before_the_oracle_grid(self):
        with pytest.raises(ValueError, match="finite B") as err:
            negative_result_demo(hinge(), HypothesisSpec(LIN, W=1.0, B=math.inf, gamma=0.1))
        assert not isinstance(err.value, OracleInfeasibleError)


class TestInputChecks:
    def test_no_unrestricted_best_in_class_under_perturbations(self):
        spec = HypothesisSpec(HypothesisClass.ALL, gamma=0.1)
        with pytest.raises(ValueError, match="no exact machinery for the unrestricted class"):
            best_in_class_risk(hinge(), spec, sect7_adversarial(0.1))

    def test_negative_result_demo_needs_a_bounded_class(self):
        with pytest.raises(ValueError, match="requires a linear or ReLU class"):
            negative_result_demo(hinge(), HypothesisSpec(HypothesisClass.ALL, gamma=0.1))
