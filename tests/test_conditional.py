"""Conditional risks: closed forms vs the grid oracle, regret lemmas, cases."""

import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hcbounds.conditional import (
    _ALL_SCORE_CAP,
    ConditionalPoint,
    _adversarial_bracket,
    _interval_risk,
    _linspace_cells,
    _min_risk,
    _pruned_minima,
    _score_grids_inf,
    Constraint,
    OracleInfeasibleError,
    brute_force_inf,
    min_conditional_risk,
    min_conditional_risk_adversarial,
    min_risk_symmetric,
)
from hcbounds.bounds import _score_kernel
from hcbounds.hypotheses import (
    HypothesisClass,
    HypothesisSpec,
    LinearHypothesis,
    score_range,
)
from hcbounds.losses import (
    LossFamily,
    check_truncation_eps,
    eval_margin_loss,
    exponential,
    hinge,
    logistic,
    quadratic,
    rho_margin,
    sigmoid,
)

LIN = HypothesisClass.LINEAR
RELU = HypothesisClass.ONE_HIDDEN_RELU
ALL = HypothesisClass.ALL
ALL_LOSSES = [hinge(), logistic(), exponential(), quadratic(), sigmoid(1.0), rho_margin(1.0)]


class TestConditionalRisk:
    def test_hinge_at_origin(self):
        spec = HypothesisSpec(LIN, W=1.0, B=1.0)
        assert conditional_risk(hinge(), spec, 0.0, ConditionalPoint(0.5, 0.7)) == pytest.approx(1.0)

    def test_quadratic_at_origin_any_t(self):
        spec = HypothesisSpec(LIN, W=1.0, B=1.0)
        for t in (0.0, 0.3, 1.0):
            assert conditional_risk(quadratic(), spec, 0.0, ConditionalPoint(0.2, t)) == pytest.approx(1.0)

    def test_sigmoid_pure_positive(self):
        spec = HypothesisSpec(LIN, W=1.0, B=1.0)
        got = conditional_risk(sigmoid(1.0), spec, 0.5, ConditionalPoint(0.5, 1.0))
        assert got == pytest.approx(1.0 - math.tanh(0.5), abs=1e-15)

    def test_rejects_unattainable_score(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        with pytest.raises(ValueError):
            conditional_risk(hinge(), spec, 2.0, ConditionalPoint(0.5, 0.5))


class TestMinConditionalRisk:
    def test_hinge_pure_label_small_reach(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.8)
        got = min_conditional_risk(hinge(), spec, ConditionalPoint(0.0, 1.0))
        assert got == pytest.approx(0.2)

    def test_exponential_balanced_point(self):
        spec = HypothesisSpec(LIN, W=1.0, B=1.0)
        assert min_conditional_risk(exponential(), spec, ConditionalPoint(0.3, 0.5)) == pytest.approx(1.0)

    def test_rho_margin_saturated_reach(self):
        spec = HypothesisSpec(LIN, W=1.0, B=2.0)
        got = min_conditional_risk(rho_margin(1.0), spec, ConditionalPoint(1.0, 0.7))
        assert got == pytest.approx(0.3)

    def test_degenerate_t_no_log_of_zero(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.8)
        v1 = min_conditional_risk(logistic(), spec, ConditionalPoint(0.0, 1.0))
        assert v1 == pytest.approx(math.log2(1.0 + math.exp(-0.8)))
        v0 = min_conditional_risk(exponential(), spec, ConditionalPoint(0.0, 0.0))
        assert v0 == pytest.approx(math.exp(-0.8))
        spec_inf = HypothesisSpec(ALL)
        assert min_conditional_risk(logistic(), spec_inf, ConditionalPoint(0.0, 1.0)) == 0.0

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.label())
    def test_symmetric_in_t(self, loss):
        rng = np.random.default_rng(2)
        for cls in (LIN, RELU, ALL):
            spec = HypothesisSpec(cls, W=1.2, B=0.6, Lambda=1.5)
            for _ in range(20):
                x, t = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
                a = min_conditional_risk(loss, spec, ConditionalPoint(x, t))
                b = min_conditional_risk(loss, spec, ConditionalPoint(x, 1.0 - t))
                assert a == pytest.approx(b, abs=1e-12)

    def test_branch_continuity_at_boundaries(self):
        # both branch formulas agree analytically at the selection boundary
        s = 0.9
        t_log = math.exp(s) / (1.0 + math.exp(s))  # log-odds == s
        ent = -t_log * math.log2(t_log) - (1 - t_log) * math.log2(1 - t_log)
        clipped = max(t_log, 1 - t_log) * math.log2(1 + math.exp(-s)) + min(
            t_log, 1 - t_log
        ) * math.log2(1 + math.exp(s))
        assert ent == pytest.approx(clipped, abs=1e-12)
        t_exp = math.exp(2 * s) / (1.0 + math.exp(2 * s))  # half log-odds == s
        smooth = 2.0 * math.sqrt(t_exp * (1 - t_exp))
        clipped = max(t_exp, 1 - t_exp) * math.exp(-s) + min(t_exp, 1 - t_exp) * math.exp(s)
        assert smooth == pytest.approx(clipped, abs=1e-12)
        t_quad = (1.0 + s) / 2.0  # |2t-1| == s
        assert 4 * t_quad * (1 - t_quad) == pytest.approx(
            max(t_quad, 1 - t_quad) * (1 - s) ** 2 + min(t_quad, 1 - t_quad) * (1 + s) ** 2,
            abs=1e-12,
        )

    def test_rejects_adversarial_spec(self):
        spec = HypothesisSpec(LIN, W=1.0, B=1.0, gamma=0.1)
        with pytest.raises(ValueError):
            min_conditional_risk(hinge(), spec, ConditionalPoint(0.5, 0.5))


class TestMinConditionalRiskAdversarial:
    def test_rho_margin_linear_exact(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.8, gamma=0.1)
        lo, hi = min_conditional_risk_adversarial(rho_margin(1.0), spec, ConditionalPoint(1.0, 0.9))
        assert lo == hi
        # reach 1.7 saturates at rho=1, so the value is min{t, 1-t}
        assert lo == pytest.approx(0.1)

    def test_rho_margin_wider_margin(self):
        # same geometry with rho=2: reach/rho = 0.85 -> 0.9*0.15 + 0.1
        spec = HypothesisSpec(LIN, W=1.0, B=0.8, gamma=0.1)
        lo, hi = min_conditional_risk_adversarial(rho_margin(2.0), spec, ConditionalPoint(1.0, 0.9))
        assert lo == hi == pytest.approx(0.235)

    def test_balanced_point(self):
        spec = HypothesisSpec(LIN, W=0.5, B=0.3, gamma=0.1)
        lo, hi = min_conditional_risk_adversarial(rho_margin(1.0), spec, ConditionalPoint(0.4, 0.5))
        m = min(0.5 * max(0.4, 0.1) - 0.1 * 0.5 + 0.3, 1.0)
        assert lo == hi == pytest.approx(0.5 * (1.0 - m) + 0.5)

    def test_saturation_when_bias_exceeds_margin(self):
        spec = HypothesisSpec(LIN, W=1.0, B=2.0, gamma=0.1)
        lo, hi = min_conditional_risk_adversarial(rho_margin(1.0), spec, ConditionalPoint(1.0, 0.7))
        assert lo == hi == pytest.approx(0.3)

    def test_relu_interval_ordering(self):
        spec = HypothesisSpec(RELU, W=1.0, B=0.4, Lambda=1.5, gamma=0.1)
        lo, hi = min_conditional_risk_adversarial(rho_margin(1.0), spec, ConditionalPoint(0.8, 0.85))
        assert lo <= hi

    def test_hinge_sigmoid_intervals(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.6, gamma=0.1)
        for loss in (hinge(), sigmoid(1.0)):
            lo, hi = min_conditional_risk_adversarial(loss, spec, ConditionalPoint(0.9, 0.8))
            assert lo <= hi
            oracle = brute_force_inf(loss, spec, ConditionalPoint(0.9, 0.8), Constraint.NONE, 1501)
            assert lo - 5e-3 <= oracle <= hi + 5e-3

    def test_sup_convex_rejected(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.6, gamma=0.1)
        for loss in (logistic(), exponential(), quadratic()):
            with pytest.raises(ValueError):
                min_conditional_risk_adversarial(loss, spec, ConditionalPoint(0.5, 0.5))


# SHA-256 of the brackets (hex floats) on a 4 x 5 (||x||, t) grid, computed
# when the adversarial brackets had their own copy of the minimal-risk formula.
_BRACKET_SPECS = {
    "lin": HypothesisSpec(LIN, W=0.5, B=0.2, gamma=0.1),
    "lin-wide": HypothesisSpec(LIN, W=2.0, B=0.1, gamma=0.2),
    "relu": HypothesisSpec(RELU, W=1.0, B=0.2, Lambda=1.5, gamma=0.1),
}
_BRACKET_DIGESTS = {
    ("lin", "rho-margin(rho=2)"): "5ab3b85f9954b0a8eeee83f48c3c77d346b481ca638f972f13d7d2198de17b95",
    ("lin", "rho-margin(rho=0.3)"): "89e7dbf3601e51a94c9b5e3621b1485a8a652b6afe37d62a374dc39ba82f8cfc",
    ("lin", "hinge"): "b3d2d6e6235a2dd943464b0ccb9e8e2a2029b78059335b5ff992b5b183b76d7d",
    ("lin", "sigmoid(k=2)"): "fba3203a8703a163889664efe69b30875bd55e3fb0116ccf8b18858d6a8b11af",
    ("lin-wide", "rho-margin(rho=2)"): "1bec2d0d8d14aa97ce28ac91cf6125332a43e66124b6ee95c300c7410b579adc",
    ("lin-wide", "rho-margin(rho=0.3)"): "80a1d152fd94408a5523cd849f23400536d9d1d19270d9828404ac9213aa46e0",
    ("lin-wide", "hinge"): "43b185be7a4bc87974c202151bac736f6c548886e92ca72bf6cfea8bd4c6a8fb",
    ("lin-wide", "sigmoid(k=2)"): "2b1a2eaca47045249e65956d920180214dcc9391b732c51203bc4a9c2e981f31",
    ("relu", "rho-margin(rho=2)"): "1bb860366932cfa58d9598495d8f90cc8b916c2be446171c23d9ec32e3d409b1",
    ("relu", "rho-margin(rho=0.3)"): "8ff05023418c00d5806f153faf0d906be4ea1c0db78ac24e1e81a39548b459c8",
    ("relu", "hinge"): "d16eb1a9fd2513046ea82d82962713919ae8208a765bbffa7917a2d84a66989b",
    ("relu", "sigmoid(k=2)"): "eac48b783db4e3f4c0db6fc8cdf4a73418aefebed8242f72f933e69b7b792ac0",
}

# Pins that moved when the closed forms went to numpy: np.tanh differs from
# math.tanh in the last ulp.  The 40 bracket values of the old pin stay as
# anchors, and every new value lies within 2.2e-16 of its anchor.
_BRACKET_ANCHORS = {
    ("lin", "sigmoid(k=2)"): (
        "0x1.3d775461ede95p-1 0x1.3d775461ede95p-1 0x1.8b4799078ebf3p-1 0x1.8b4799078ebf3p-1 "
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.645f76b4be544p-1 0x1.645f76b4be544p-1 "
        "0x1.3d775461ede95p-1 0x1.3d775461ede95p-1 0x1.3d775461ede95p-1 0x1.3d775461ede95p-1 "
        "0x1.8b4799078ebf3p-1 0x1.8b4799078ebf3p-1 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "0x1.645f76b4be544p-1 0x1.645f76b4be544p-1 0x1.3d775461ede95p-1 0x1.3d775461ede95p-1 "
        "0x1.da0fada5a6608p-2 0x1.3d775461ede95p-1 0x1.5b04b41818502p-1 0x1.8b4799078ebf3p-1 "
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.2406457575c03p-1 0x1.645f76b4be544p-1 "
        "0x1.da0fada5a6608p-2 0x1.3d775461ede95p-1 0x1.1b30e36459318p-3 0x1.3d775461ede95p-1 "
        "0x1.ee8eaa9e1ac22p-2 0x1.8b4799078ebf3p-1 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "0x1.3e138e2823ad6p-2 0x1.645f76b4be544p-1 0x1.1b30e36459318p-3 0x1.3d775461ede95p-1"
    ).split(),
    ("relu", "sigmoid(k=2)"): (
        "0x1.da0fada5a6606p-2 0x1.da0fada5a6606p-2 0x1.5b04b41818502p-1 0x1.5b04b41818502p-1 "
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.2406457575c02p-1 0x1.2406457575c02p-1 "
        "0x1.da0fada5a6606p-2 0x1.da0fada5a6606p-2 0x1.da0fada5a6606p-2 0x1.da0fada5a6606p-2 "
        "0x1.5b04b41818502p-1 0x1.5b04b41818502p-1 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "0x1.2406457575c02p-1 0x1.2406457575c02p-1 0x1.da0fada5a6606p-2 0x1.da0fada5a6606p-2 "
        "0x1.54ace4b5c8d40p-3 0x1.da0fada5a6606p-2 0x1.ffcd77d022a60p-2 0x1.5b04b41818502p-1 "
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.5511f51583880p-2 0x1.2406457575c02p-1 "
        "0x1.54ace4b5c8d40p-3 0x1.da0fada5a6606p-2 0x1.6420bb083fd00p-9 0x1.da0fada5a6606p-2 "
        "0x1.9b44f413a37fcp-2 0x1.5b04b41818502p-1 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "0x1.9e0d3589b3ff4p-3 0x1.2406457575c02p-1 0x1.6420bb083fd00p-9 0x1.da0fada5a6606p-2"
    ).split(),
}


@pytest.mark.parametrize("spec_name", sorted(_BRACKET_SPECS))
@pytest.mark.parametrize("loss", [rho_margin(2.0), rho_margin(0.3), hinge(), sigmoid(2.0)], ids=lambda l: l.label())
def test_adversarial_brackets_pinned(spec_name, loss):
    vals = []
    for x in (0.0, 0.05, 0.3, 1.0):
        for t in (0.0, 0.2, 0.5, 0.9, 1.0):
            point = ConditionalPoint(x, t)
            vals.extend(min_conditional_risk_adversarial(loss, _BRACKET_SPECS[spec_name], point))
    digest = hashlib.sha256(",".join(v.hex() for v in vals).encode()).hexdigest()
    assert digest == _BRACKET_DIGESTS[spec_name, loss.label()]
    anchors = _BRACKET_ANCHORS.get((spec_name, loss.label()))
    if anchors is not None:
        assert len(anchors) == len(vals)
        assert all(abs(v - float.fromhex(a)) <= 2.2e-16 for v, a in zip(vals, anchors))


def conditional_risk(loss, spec, u, point):
    """t*Phi(u) + (1-t)*Phi(-u), with u validated against the attainable
    range: the tests' reference conditional risk (also of test_bounds)."""
    if spec.cls is not HypothesisClass.ALL:
        lo, hi = score_range(spec, point.x_norm_p)
        if not lo <= u <= hi:
            raise ValueError(f"score u={u} outside attainable range [{lo}, {hi}]")
    return _interval_risk(loss, point.t, u, u)


def sign(alpha):
    """Classification sign with the tie broken toward +1, sign(0) = +1: the
    tests' reference (also of test_losses) for ``bounds._score_kernel``'s
    indicator, which in its robust case counts a worst-case score of
    exactly 0 as an error."""
    return 1 if alpha >= 0 else -1


def conditional_risk_zero_one(u, t):
    """Conditional zero-one risk of a score, the tests' reference (also of
    test_bounds and test_losses): t when the score predicts -1, else 1 - t."""
    return t if sign(u) < 0 else 1.0 - t


def truncate(t, eps=0.0):
    """eps-truncation, the tests' reference (also of test_losses): t if
    t > eps, else 0 (strict inequality)."""
    check_truncation_eps(eps)
    t_a = np.asarray(t, dtype=float)
    out = np.where(t_a > eps, t_a, 0.0)
    return out if isinstance(t, np.ndarray) else float(out)


def _lemma_zero_one(t, wrong_side, eps=0.0):
    """The zero-one regret lemma: <2|t - 1/2|>_eps when h's sign disagrees
    with the Bayes sign (or t = 1/2), else 0."""
    return truncate(2.0 * abs(t - 0.5), eps) if wrong_side else 0.0


def _lemma_adversarial(lo, hi, t):
    """The robust zero-one regret lemma, by where the worst-case score
    interval [lo, hi] sits: straddling 0, strictly negative or strictly
    positive."""
    delta = t - 0.5
    if lo <= 0.0 <= hi:
        return abs(delta) + 0.5
    return truncate(2.0 * delta) if hi < 0.0 else truncate(-2.0 * delta)


def _robust_regret(h, x, t, gamma):
    """Robust conditional zero-one regret of h at (x, t), from the kernel's
    robust indicator: t*err(+1) + (1-t)*err(-1) - min(t, 1-t)."""
    err_pos, arg_pos = _score_kernel(h.w, h.b, x, 1, gamma)
    err_neg, arg_neg = _score_kernel(h.w, h.b, x, -1, gamma)
    regret = t * float(err_pos) + (1.0 - t) * float(err_neg) - min(t, 1.0 - t)
    return regret, float(arg_pos), -float(arg_neg)  # the margins are lo and -hi


class TestRegrets:
    def test_zero_one_wrong_side(self):
        t = 0.75
        assert conditional_risk_zero_one(-0.2, t) - min(t, 1.0 - t) == _lemma_zero_one(t, True) == 0.5
        assert conditional_risk_zero_one(0.2, t) - min(t, 1.0 - t) == _lemma_zero_one(t, False) == 0.0

    def test_zero_one_balanced(self):
        for u in (-0.2, 0.0, 0.2):
            assert conditional_risk_zero_one(u, 0.5) - 0.5 == _lemma_zero_one(0.5, True) == 0.0

    def test_zero_one_truncated(self):
        regret = conditional_risk_zero_one(-0.2, 0.75) - 0.25
        assert truncate(regret, 0.5) == _lemma_zero_one(0.75, True, eps=0.5) == 0.0

    def test_adversarial_cases(self):
        # h = (1, b) around x = 0 with gamma = 0.1: worst-case scores [b - 0.1, b + 0.1]
        t = 0.8
        for b, lemma in ((0.0, 0.8), (-0.2, 0.6), (0.2, 0.0)):  # straddling, negative, positive
            regret, lo, hi = _robust_regret(LinearHypothesis(1.0, b), 0.0, t, 0.1)
            assert _lemma_adversarial(lo, hi, t) == pytest.approx(lemma, abs=1e-15)
            assert regret == pytest.approx(lemma, abs=1e-15)

    def test_lemma_zero_one_exact_equality(self):
        # conditional zero-one regret of a concrete h equals the lemma value
        rng = np.random.default_rng(4)
        for _ in range(200):
            w, b = rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)
            x = rng.uniform(-1, 1)
            t = float(rng.uniform(0, 1))
            u = w * x + b
            regret = conditional_risk_zero_one(u, t) - min(t, 1.0 - t)
            s = 1 if u >= 0 else -1
            wrong = s * (t - 0.5) <= 0
            assert regret == pytest.approx(_lemma_zero_one(t, wrong), abs=1e-15)

    def test_lemma_adversarial_case_partition(self):
        # the kernel's robust regret matches the lemma's value in every case
        gamma = 0.15
        rng = np.random.default_rng(14)
        for _ in range(300):
            h = LinearHypothesis((rng.uniform(-1, 1),), rng.uniform(-0.5, 0.5))
            x = float(rng.uniform(-1, 1))
            t = float(rng.uniform(0, 1))
            regret, lo, hi = _robust_regret(h, x, t, gamma)
            assert lo <= hi
            assert regret == pytest.approx(_lemma_adversarial(lo, hi, t), abs=1e-15)


class TestBruteForceOracle:
    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.label())
    @pytest.mark.parametrize("cls", [LIN, RELU], ids=["linear", "relu"])
    def test_matches_closed_form(self, loss, cls):
        rng = np.random.default_rng(hash((loss.family.value, cls.value)) % 2**32)
        for _ in range(8):
            if cls is LIN:
                spec = HypothesisSpec(cls, W=rng.uniform(0.2, 2.0), B=rng.uniform(0.05, 2.0))
            else:
                spec = HypothesisSpec(
                    cls, W=rng.uniform(0.1, 1.5), B=rng.uniform(0.1, 1.5), Lambda=rng.uniform(0.3, 1.6)
                )
            pt = ConditionalPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            closed = min_conditional_risk(loss, spec, pt)
            oracle = brute_force_inf(loss, spec, pt, Constraint.NONE, 4001)
            assert closed == pytest.approx(oracle, abs=2e-3)
            assert oracle >= closed - 1e-9  # grid can only overshoot the infimum

    def test_unbounded_class(self):
        spec = HypothesisSpec(ALL)
        rng = np.random.default_rng(15)
        for loss in ALL_LOSSES:
            t = float(rng.uniform(0.02, 0.98))
            pt = ConditionalPoint(0.4, t)
            closed = min_conditional_risk(loss, spec, pt)
            assert brute_force_inf(loss, spec, pt, Constraint.NONE, 4001) == pytest.approx(closed, abs=2e-3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.label())
    @pytest.mark.parametrize("B", [1e308, np.nextafter(np.finfo(float).max / 2, math.inf)])
    def test_range_whose_width_overflows_is_capped(self, loss, B):
        # 2*(W|x| + B) overflows: the grid is capped like an infinite range,
        # never a NaN step, and the minimum is the unbounded class's
        spec, pt = HypothesisSpec(LIN, W=1.0, B=B), ConditionalPoint(0.5, 0.3)
        got = brute_force_inf(loss, spec, pt)
        assert got == brute_force_inf(loss, HypothesisSpec(LIN, W=1.0, B=math.inf), pt)
        assert got == pytest.approx(min_conditional_risk(loss, spec, pt), abs=2e-3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.label())
    @pytest.mark.parametrize("B", [25.0, 1e6, np.finfo(float).max / 2])
    @pytest.mark.parametrize("constraint", [Constraint.NONE, Constraint.SCORE_NEGATIVE], ids=lambda c: c.value)
    def test_finite_range_above_the_cap_is_capped(self, loss, B, constraint):
        # every s above _ALL_SCORE_CAP is capped, not only the infinite or
        # overflowing ones: [-cap, cap] is attainable, and its grid is as fine
        # as the unbounded class's (at B = max/2 an uncapped grid steps by
        # ~4.5e304, and its hinge minimum read 2.99e291)
        spec, pt = HypothesisSpec(LIN, W=1.0, B=B), ConditionalPoint(0.5, 0.3)
        got = brute_force_inf(loss, spec, pt, constraint)
        assert got == brute_force_inf(loss, HypothesisSpec(LIN, W=1.0, B=math.inf), pt, constraint)
        if constraint is Constraint.NONE:
            assert got == pytest.approx(min_conditional_risk(loss, spec, pt), abs=2e-3)

    def test_hinge_constrained_negative_is_one(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.8)
        for t in (0.6, 0.8, 1.0):
            got = brute_force_inf(hinge(), spec, ConditionalPoint(0.5, t), Constraint.SCORE_NEGATIVE, 2001)
            assert got == pytest.approx(1.0, abs=1e-9)

    def test_refinement_monotone(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.7)
        pt = ConditionalPoint(0.6, 0.85)
        coarse = brute_force_inf(quadratic(), spec, pt, Constraint.NONE, 101)
        fine = brute_force_inf(quadratic(), spec, pt, Constraint.NONE, 4001)
        assert fine <= coarse + 1e-15

    def test_delta_c_nonnegative_for_sampled_h(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.7)
        rng = np.random.default_rng(16)
        for loss in ALL_LOSSES:
            pt = ConditionalPoint(0.6, float(rng.uniform(0, 1)))
            floor = min_conditional_risk(loss, spec, pt)
            lo, hi = -spec.score_bound(0.6), spec.score_bound(0.6)
            for u in rng.uniform(lo, hi, 50):
                assert conditional_risk(loss, spec, float(u), pt) >= floor - 1e-12

    def test_infeasible_constraints_raise(self):
        spec = HypothesisSpec(LIN, W=0.0, B=0.0)
        with pytest.raises(OracleInfeasibleError):
            brute_force_inf(hinge(), spec, ConditionalPoint(0.5, 0.7), Constraint.SCORE_NEGATIVE)
        adv = HypothesisSpec(LIN, W=1.0, B=0.0, gamma=0.2)
        with pytest.raises(OracleInfeasibleError):
            brute_force_inf(rho_margin(1.0), adv, ConditionalPoint(0.1, 0.7), Constraint.ADV_SUP_NEGATIVE, 301)

    @pytest.mark.filterwarnings("error")
    def test_adversarial_oracle_rejects_unbounded_bias(self):
        # before any grid is built: no overflow warning, no infeasibility report
        spec = HypothesisSpec(LIN, W=1.0, B=math.inf, gamma=0.1)
        with pytest.raises(ValueError, match="finite B") as err:
            brute_force_inf(hinge(), spec, ConditionalPoint(0.0, 0.5))
        assert not isinstance(err.value, OracleInfeasibleError)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "constraint", [Constraint.NONE, Constraint.ADV_STRADDLE, Constraint.ADV_SUP_NEGATIVE], ids=lambda c: c.value
    )
    @pytest.mark.parametrize("huge", [1e308, np.nextafter(np.finfo(float).max / 2, math.inf)])
    @pytest.mark.parametrize("budget", ["W", "B"])
    def test_adversarial_oracle_rejects_budget_whose_grid_width_overflows(self, budget, huge, constraint):
        # 2W or 2B overflows, so np.linspace(-W, W) would step by inf: a
        # ValueError naming the budget, before any grid is built
        spec = HypothesisSpec(LIN, **{"W": 1.0, "B": 1.0, budget: huge}, gamma=0.1)
        with pytest.raises(ValueError, match=f"finite {budget} and 2{budget}") as err:
            brute_force_inf(hinge(), spec, ConditionalPoint(0.5, 0.3), constraint, grid_n=101)
        assert not isinstance(err.value, OracleInfeasibleError)

    def test_constraint_mode_validation(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        with pytest.raises(ValueError):
            brute_force_inf(hinge(), spec, ConditionalPoint(0.5, 0.5), Constraint.ADV_STRADDLE)
        adv = HypothesisSpec(LIN, W=1.0, B=0.5, gamma=0.1)
        with pytest.raises(ValueError):
            brute_force_inf(hinge(), adv, ConditionalPoint(0.5, 0.5), Constraint.SCORE_NEGATIVE)

    def test_adversarial_oracle_matches_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(4):
            spec = HypothesisSpec(
                LIN,
                W=rng.uniform(0.2, 1.5),
                B=rng.uniform(0.05, 1.5),
                gamma=rng.uniform(0.05, 0.3),
            )
            loss = rho_margin(float(rng.uniform(0.5, 1.5)))
            pt = ConditionalPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            lo, _ = min_conditional_risk_adversarial(loss, spec, pt)
            oracle = brute_force_inf(loss, spec, pt, Constraint.NONE, 1501)
            assert lo == pytest.approx(oracle, abs=2e-3)


def test_min_risk_symmetric_handles_infinite_reach():
    for loss in ALL_LOSSES:
        v = min_risk_symmetric(loss, math.inf, 0.5)
        assert 0.0 <= v <= 1.0
    assert min_risk_symmetric(hinge(), math.inf, 0.5) == pytest.approx(1.0)
    assert min_risk_symmetric(rho_margin(1.0), math.inf, 0.3) == pytest.approx(0.3)


class TestArrayClosedForms:
    """The closed forms take broadcasting arrays of (s, t); a scalar call is
    the 0-d case of the same code."""

    S = np.array([-0.3, 0.0, 1e300, math.inf])[:, None]
    T = np.array([0.0, 1e-300, 0.5, 1.0])[None, :]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.label())
    def test_grid_is_finite_and_each_scalar_call_matches_its_element(self, loss):
        # np.where evaluates both branches: the one not taken may overflow,
        # but no RuntimeWarning escapes and no non-finite value is picked
        grid = min_risk_symmetric(loss, self.S, self.T)
        assert grid.shape == (4, 4) and np.isfinite(grid).all()
        for (i, j), want in np.ndenumerate(grid):
            got = min_risk_symmetric(loss, float(self.S[i, 0]), float(self.T[0, j]))
            assert type(got) is float and got.hex() == float(want).hex()

    def test_array_path_keeps_the_worst_case_convex_rejection(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.6, gamma=0.1)
        for loss in (logistic(), exponential(), quadratic()):
            with pytest.raises(ValueError, match="no closed form"):
                _adversarial_bracket(loss, spec)

    def test_array_path_rejects_norms_above_one(self):
        x = np.array([0.2, 1.5])
        t = np.array([0.3, 0.7])
        with pytest.raises(ValueError, match=r"\|\|x\|\|_p must lie in \[0, 1\]"):
            _min_risk(hinge(), HypothesisSpec(LIN, W=1.0, B=0.5))(x, t)
        with pytest.raises(ValueError, match=r"\|\|x\|\|_p must lie in \[0, 1\]"):
            _adversarial_bracket(hinge(), HypothesisSpec(LIN, W=1.0, B=0.5, gamma=0.1))(x, t)

    @pytest.mark.parametrize("spec_name", sorted(_BRACKET_SPECS))
    def test_array_bracket_matches_the_scalar_api(self, spec_name):
        spec = _BRACKET_SPECS[spec_name]
        x = np.array([0.0, 0.05, 0.3, 1.0])[:, None]
        t = np.array([0.0, 0.2, 0.5, 0.9, 1.0])[None, :]
        for loss in (rho_margin(0.3), hinge(), sigmoid(2.0)):
            lo, hi = np.broadcast_arrays(*_adversarial_bracket(loss, spec)(x, t))
            for (i, j), want_lo in np.ndenumerate(lo):
                got = min_conditional_risk_adversarial(loss, spec, ConditionalPoint(float(x[i, 0]), float(t[0, j])))
                assert got == (want_lo, hi[i, j])


ADV_SPEC = HypothesisSpec(LIN, W=1.1, B=0.7, gamma=0.15)
ADV_POINT = ConditionalPoint(0.6, 0.3)
ADV_CONSTRAINTS = [Constraint.NONE, Constraint.ADV_STRADDLE, Constraint.ADV_SUP_NEGATIVE]
ADV_LOSSES = [rho_margin(0.8), hinge(), sigmoid(1.3)]


def _one_shot_adversarial_min(loss, spec, pt, constraint, n):
    """The adversarial grid minimum over the whole (w, b) grid at once,
    unchunked; inf when no cell meets the constraint."""
    w = np.linspace(-spec.W, spec.W, n)[:, None]
    b = np.linspace(-spec.B, spec.B, n)[None, :]
    spread = spec.gamma * np.abs(w)
    base = w * pt.x_norm_p + b
    lo, hi = base - spread, base + spread
    risk = pt.t * eval_margin_loss(loss, lo) + (1.0 - pt.t) * eval_margin_loss(loss, -hi)
    if constraint is Constraint.ADV_STRADDLE:
        risk = risk[(lo <= 0.0) & (hi >= 0.0)]
    elif constraint is Constraint.ADV_SUP_NEGATIVE:
        risk = risk[hi <= 0.0]
    return float(np.min(risk, initial=math.inf))


_ADV_GRID_LOSSES = st.one_of(
    st.builds(rho_margin, st.floats(0.2, 2.0)),
    st.just(hinge()),
    st.builds(sigmoid, st.floats(0.3, 3.0)),
    st.sampled_from([logistic(), exponential(), quadratic()]),
)


class TestAdversarialGridKernel:
    @pytest.fixture
    def two_cpus(self, monkeypatch):
        # HCB_THREADS may ask for two threads even on a one-CPU host; the
        # oracle runs on the calling thread at every setting
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return monkeypatch

    # every size leaves a ragged last chunk
    @pytest.mark.parametrize("grid_n", [37, 1001, 4001])
    @pytest.mark.parametrize("constraint", ADV_CONSTRAINTS, ids=lambda c: c.value)
    @pytest.mark.parametrize("loss", ADV_LOSSES, ids=lambda l: l.family.value)
    def test_thread_count_does_not_change_minimum(self, two_cpus, loss, constraint, grid_n):
        got = {}
        for threads in ("1", "2"):
            two_cpus.setenv("HCB_THREADS", threads)
            got[threads] = brute_force_inf(loss, ADV_SPEC, ADV_POINT, constraint, grid_n)
        assert got["1"] == got["2"]

    # at grid_n=255 some hinge/sigmoid minima sit alone in the first or the
    # last row of a chunk, so a chunk boundary that skips a row shows
    @pytest.mark.parametrize("grid_n", [255, 257])
    @pytest.mark.parametrize("constraint", ADV_CONSTRAINTS, ids=lambda c: c.value)
    @pytest.mark.parametrize("loss", ADV_LOSSES, ids=lambda l: l.family.value)
    def test_matches_unchunked_reference(self, two_cpus, loss, constraint, grid_n):
        two_cpus.setenv("HCB_THREADS", "2")
        for t in (0.3, 0.7):
            pt = ConditionalPoint(ADV_POINT.x_norm_p, t)
            ref = _one_shot_adversarial_min(loss, ADV_SPEC, pt, constraint, grid_n)
            assert brute_force_inf(loss, ADV_SPEC, pt, constraint, grid_n) == ref

    # 2 and 3 columns are narrower than one block; 37, 255, 257 and 1001
    # leave a ragged last block; 15 to 129 sit at the edges of 16-row tiles
    # and 64-column blocks
    @given(
        loss=_ADV_GRID_LOSSES,
        constraint=st.sampled_from(ADV_CONSTRAINTS),
        grid_n=st.sampled_from([2, 3, 15, 16, 17, 37, 63, 64, 65, 129, 255, 257, 1001]),
        W=st.floats(0.0, 2.0),
        B=st.floats(0.05, 2.0),
        gamma=st.floats(0.01, 0.99),
        x=st.floats(0.0, 1.0),
        t=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    )
    @example(loss=rho_margin(0.8), constraint=Constraint.ADV_STRADDLE, grid_n=1001, W=1.1, B=0.7, gamma=0.15, x=0.6, t=0.5)
    @example(loss=hinge(), constraint=Constraint.ADV_SUP_NEGATIVE, grid_n=37, W=1.1, B=0.7, gamma=0.15, x=0.6, t=0.0)
    @example(loss=sigmoid(1.3), constraint=Constraint.NONE, grid_n=2, W=1.1, B=0.7, gamma=0.15, x=0.6, t=1.0)
    @example(loss=hinge(), constraint=Constraint.ADV_STRADDLE, grid_n=2, W=0.0, B=0.7, gamma=0.15, x=0.6, t=0.3)
    # W = 0: every row of a tile is the same row
    @example(loss=hinge(), constraint=Constraint.ADV_STRADDLE, grid_n=17, W=0.0, B=0.7, gamma=0.15, x=0.6, t=0.3)
    @example(loss=logistic(), constraint=Constraint.NONE, grid_n=64, W=0.0, B=0.7, gamma=0.15, x=0.6, t=0.8)
    # the logistic loss near the edge of its exact region: x*W and gamma*W
    # at 0 or just above 1e-12
    @example(loss=logistic(), constraint=Constraint.NONE, grid_n=65, W=1e-10, B=0.7, gamma=0.011, x=0.0, t=0.5)
    @example(loss=logistic(), constraint=Constraint.ADV_STRADDLE, grid_n=129, W=1e-9, B=0.05, gamma=0.5, x=0.0011, t=0.3)
    # the minimum lies outside the tile of least bound
    @example(loss=hinge(), constraint=Constraint.NONE, grid_n=65, W=0.11, B=0.43, gamma=0.34, x=0.93, t=0.89)
    @example(loss=rho_margin(0.8), constraint=Constraint.NONE, grid_n=65, W=1.41, B=0.54, gamma=0.07, x=0.19, t=0.68)
    @example(loss=hinge(), constraint=Constraint.ADV_SUP_NEGATIVE, grid_n=65, W=1.01, B=1.67, gamma=0.03, x=0.56, t=0.49)
    @example(loss=sigmoid(1.3), constraint=Constraint.ADV_STRADDLE, grid_n=129, W=0.49, B=0.68, gamma=0.8, x=0.32, t=0.15)
    @settings(max_examples=120, deadline=None)
    def test_pruned_minimum_is_the_whole_grid_minimum(self, loss, constraint, grid_n, W, B, gamma, x, t):
        # the logistic loss steps up by an ulp in places: the oracle is exact
        # for it where x*W, B and gamma*W are each 0 or above ~1e-12
        assume(loss.family is not LossFamily.LOGISTIC or W == 0.0 or ((x == 0.0 or x * W >= 1e-12) and gamma * W >= 1e-12))
        spec = HypothesisSpec(LIN, W=W, B=B, gamma=gamma)
        pt = ConditionalPoint(x, t)
        ref = _one_shot_adversarial_min(loss, spec, pt, constraint, grid_n)
        if ref == math.inf:
            with pytest.raises(OracleInfeasibleError):
                brute_force_inf(loss, spec, pt, constraint, grid_n)
        else:
            assert brute_force_inf(loss, spec, pt, constraint, grid_n) == ref

    @given(seed=st.integers(0, 2**32 - 1), groups=st.integers(1, 5), n_blocks=st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_pruned_minima_from_a_starting_best(self, seed, groups, n_blocks):
        # min(cap, the group's least cell), for caps below, at, between and
        # above the cells, and no block evaluated whose bound is not below the
        # best its group has when the block's batch is taken
        rng = np.random.default_rng(seed)
        cells = rng.choice([0.25, 0.5, 0.75, 1.0], size=(groups, n_blocks, 4)) + rng.integers(0, 3, (groups, n_blocks, 1))
        bounds = cells.min(axis=2) - rng.choice([0.0, 0.125, 1.0], size=(groups, n_blocks))
        cap = rng.choice([0.0, 0.6, 1.25, 2.5, math.inf], size=groups)
        seen = []

        def blocks_min(flat, best):
            assert np.all(bounds.ravel()[flat] < best)
            seen.extend(flat)
            return cells.reshape(-1, 4)[flat].min(axis=1)

        got = _pruned_minima(bounds.copy(), blocks_min, best=cap)
        assert got.tobytes() == np.minimum(cap, cells.min(axis=(1, 2))).tobytes()
        assert len(seen) == len(set(seen))


_SCORE_GRID_LOSSES = st.one_of(
    st.sampled_from([hinge(), logistic(), exponential(), quadratic()]),
    st.builds(sigmoid, st.floats(0.3, 3.0)),
    st.builds(rho_margin, st.floats(0.2, 2.0)),
)
# one score grid: (score bound s, SCORE_NEGATIVE?, t); s spans 1e-12 (where
# the logistic loss is no longer monotone ulp by ulp) to the unbounded cap
_SCORE_GRIDS = st.lists(
    st.tuples(
        st.one_of(st.floats(-12.0, 0.8).map(lambda e: 10.0**e), st.just(_ALL_SCORE_CAP)),
        st.booleans(),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    ),
    min_size=1,
    max_size=43,
)


class TestScoreGridKernel:
    # 2 and 3 cells are narrower than one block; 37, 255, 257, 1001 and 4001
    # leave a ragged last block
    @given(loss=_SCORE_GRID_LOSSES, grid_n=st.sampled_from([2, 3, 37, 255, 257, 1001, 4001]), grids=_SCORE_GRIDS)
    @example(loss=hinge(), grid_n=4001, grids=[(0.8, False, 0.5), (0.8, True, 0.5), (_ALL_SCORE_CAP, False, 0.0)])
    @example(loss=logistic(), grid_n=4001, grids=[(1e-12, False, 0.3), (1e-12, True, 1.0)])
    @example(loss=rho_margin(0.5), grid_n=257, grids=[(2.0, True, 0.9), (_ALL_SCORE_CAP, True, 0.5)])
    # the minimum lies outside the block of least bound
    @example(loss=hinge(), grid_n=257, grids=[(2.87, True, 0.43)])
    @example(loss=quadratic(), grid_n=257, grids=[(0.64, True, 0.58)])
    @example(loss=sigmoid(1.3), grid_n=4001, grids=[(_ALL_SCORE_CAP, False, 0.51)])
    @settings(max_examples=150, deadline=None)
    def test_pruned_minima_are_the_whole_grid_minima(self, loss, grid_n, grids):
        s, negative, t = (np.array(v) for v in zip(*grids))
        lo, hi = -s, np.where(negative, 0.0, s)
        got = _score_grids_inf(loss, t, lo, hi, grid_n)
        for k in range(len(grids)):
            g = np.linspace(lo[k], hi[k], grid_n)
            assert got[k] == _interval_risk(loss, t[k], g, g).min()

    @given(
        lo=st.floats(-50.0, 50.0),
        width=st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-310]), st.floats(1e-13, 100.0)),
        grid_n=st.sampled_from([2, 3, 37, 255, 257, 1001, 4001]),
    )
    @example(lo=-0.0, width=0.0, grid_n=4001)
    @example(lo=0.3, width=0.0, grid_n=37)
    @example(lo=0.0, width=5e-324, grid_n=1001)
    @settings(max_examples=150, deadline=None)
    def test_cells_are_linspace_bit_for_bit(self, lo, width, grid_n):
        hi = lo + width
        want = np.linspace(lo, hi, grid_n)
        got = _linspace_cells(np.array(lo), np.array(hi), np.arange(grid_n), grid_n)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [HypothesisSpec(LIN, W=1.2, B=0.4), HypothesisSpec(LIN, W=1.0, B=math.inf),
                                      HypothesisSpec(RELU, W=0.7, B=0.3, Lambda=1.5), HypothesisSpec(ALL)],
                             ids=["linear", "linear-inf-B", "relu", "all"])
    @pytest.mark.parametrize("constraint", [Constraint.NONE, Constraint.SCORE_NEGATIVE], ids=lambda c: c.value)
    def test_oracle_is_the_linspace_grid_minimum(self, spec, constraint):
        # the attainable range, capped at +-_ALL_SCORE_CAP where it is unbounded
        pt = ConditionalPoint(0.35, 0.8)
        s = spec.score_bound(pt.x_norm_p)
        s = _ALL_SCORE_CAP if math.isinf(s) else s
        g = np.linspace(-s, 0.0 if constraint is Constraint.SCORE_NEGATIVE else s, 4001)
        for loss in ALL_LOSSES:
            got = brute_force_inf(loss, spec, pt, constraint, 4001)
            assert type(got) is float and got == _interval_risk(loss, pt.t, g, g).min()
