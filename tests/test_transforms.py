"""Transform structure, calculus invariants, and definitional consistency."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcbounds.conditional import ConditionalPoint, Constraint, brute_force_inf
from hcbounds.hypotheses import HypothesisClass, HypothesisSpec
from hcbounds.losses import exponential, hinge, logistic, quadratic, rho_margin, sigmoid
from hcbounds.transforms import (
    Direction,
    NegativeResultError,
    PiecewiseTransform,
    Segment,
    invert_numerically,
    select_transform,
    transform,
    transform_inverse,
)

LIN = HypothesisClass.LINEAR
RELU = HypothesisClass.ONE_HIDDEN_RELU
ALL = HypothesisClass.ALL
ALL_LOSSES = [hinge(), logistic(), exponential(), quadratic(), sigmoid(1.0), rho_margin(1.0)]


def scaled(pt, factor):
    """The pointwise multiple factor * pt of a transform of affine and power
    segments: the tests' negative control (also of test_bounds and
    test_acceptance) for checks that a too-large transform must fail."""
    segs = []
    for seg in pt.segments:
        if seg.kind not in ("affine", "power"):
            raise ValueError(f"cannot scale segment kind {seg.kind!r} in closed form")
        a, b = seg.coefficients
        segs.append(Segment(seg.kind, (factor * a, factor * b if seg.kind == "affine" else b)))
    return dataclasses.replace(pt, segments=tuple(segs), note=f"scaled x{factor:g}")


def in_scope_specs():
    return [
        HypothesisSpec(LIN, W=1.0, B=0.8),
        HypothesisSpec(LIN, W=1.0, B=0.5),
        HypothesisSpec(LIN, W=1.0, B=2.0),
        HypothesisSpec(LIN, W=1.0, B=math.inf),
        HypothesisSpec(RELU, W=1.0, B=0.4, Lambda=1.5),
        HypothesisSpec(ALL),
    ]


class TestTableValues:
    def test_hinge_linear(self):
        T = transform(hinge(), HypothesisSpec(LIN, W=1.0, B=0.8))
        assert T(0.5) == pytest.approx(0.4)
        assert len(T.segments) == 1 and T.segments[0].kind == "affine"
        assert T.segments[0].coefficients[0] == pytest.approx(0.8)

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.label())
    def test_zero_maps_to_zero(self, loss):
        for spec in in_scope_specs():
            assert transform(loss, spec)(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_second_branch(self):
        T = transform(quadratic(), HypothesisSpec(LIN, W=1.0, B=0.5))
        assert T(0.7) == pytest.approx(2 * 0.5 * 0.7 - 0.25)

    def test_sigmoid_unrestricted_is_identity(self):
        T = transform(sigmoid(1.0), HypothesisSpec(ALL))
        for t in (0.0, 0.3, 1.0):
            assert T(t) == pytest.approx(t)

    def test_quadratic_transform_matches_oracle_composition(self):
        # T(2t-1) equals the score-constrained minus unconstrained infima at the
        # reach-minimizing input
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        T = transform(quadratic(), spec)
        for t in (0.6, 0.75, 0.9):
            pt = ConditionalPoint(0.0, t)
            delta = brute_force_inf(quadratic(), spec, pt, Constraint.SCORE_NEGATIVE, 4001) - brute_force_inf(
                quadratic(), spec, pt, Constraint.NONE, 4001
            )
            assert T(2 * t - 1) == pytest.approx(delta, abs=2e-3)


class TestInverseTable:
    def test_hinge_inverse(self):
        inv = transform_inverse(hinge(), HypothesisSpec(LIN, W=1.0, B=0.8))
        assert inv(0.4) == pytest.approx(0.5)

    def test_quadratic_inverse_roundtrip(self):
        inv = transform_inverse(quadratic(), HypothesisSpec(LIN, W=1.0, B=1.0))
        assert inv(0.25) == pytest.approx(0.5)

    def test_logistic_unrestricted_small_branch(self):
        inv = transform_inverse(logistic(), HypothesisSpec(LIN, W=1.0, B=math.inf))
        assert inv(0.02) == pytest.approx(0.2)
        assert inv.relaxed

    @pytest.mark.parametrize("loss", [hinge(), quadratic(), sigmoid(1.0), rho_margin(1.0)], ids=lambda l: l.label())
    def test_exact_inverse_roundtrip(self, loss):
        for spec in in_scope_specs():
            fwd = transform(loss, spec)
            inv = transform_inverse(loss, spec)
            for t in np.linspace(0.0, 1.0, 61):
                assert inv(float(fwd(float(t)))) == pytest.approx(t, abs=1e-9)

    @pytest.mark.parametrize("loss", [logistic(), exponential()], ids=lambda l: l.label())
    def test_relaxed_inverse_dominates_exact(self, loss):
        for spec in in_scope_specs():
            fwd = transform(loss, spec)
            inv = transform_inverse(loss, spec)
            top = float(fwd(1.0))
            s = np.linspace(1e-6, top, 200)
            assert np.all(inv(s) >= invert_numerically(fwd, s) - 1e-9)

    @pytest.mark.parametrize("loss", [logistic(), exponential()], ids=lambda l: l.label())
    def test_bisection_inverse_roundtrip(self, loss):
        for spec in in_scope_specs():
            fwd = transform(loss, spec)
            ts = np.linspace(0.0, 1.0, 41)
            assert invert_numerically(fwd, fwd(ts)) == pytest.approx(ts, abs=1e-9)


# Breakpoints and (kind, coefficients) of each exact inverse, as hex floats,
# from when the inverses were typed out by hand instead of derived from the
# forward segments.  Keys: (loss label, B) for the linear class with W = 1.
_HAND_TYPED_INVERSES = {
    ("hinge", "0.4"): (('0x0.0p+0', 'inf'), (('affine', '0x1.4000000000000p+1', '0x0.0p+0'),)),
    ("hinge", "1.0"): (('0x0.0p+0', 'inf'), (('affine', '0x1.0000000000000p+0', '0x0.0p+0'),)),
    ("hinge", "1.7"): (('0x0.0p+0', 'inf'), (('affine', '0x1.0000000000000p+0', '0x0.0p+0'),)),
    ("hinge", "inf"): (('0x0.0p+0', 'inf'), (('affine', '0x1.0000000000000p+0', '0x0.0p+0'),)),
    ("sigmoid(k=3)", "0.4"): (('0x0.0p+0', 'inf'), (('affine', '0x1.3314e47aa15b6p+0', '0x0.0p+0'),)),
    ("sigmoid(k=3)", "1.0"): (('0x0.0p+0', 'inf'), (('affine', '0x1.0145b3cc9964cp+0', '0x0.0p+0'),)),
    ("sigmoid(k=3)", "1.7"): (('0x0.0p+0', 'inf'), (('affine', '0x1.0004df46798edp+0', '0x0.0p+0'),)),
    ("sigmoid(k=3)", "inf"): (('0x0.0p+0', 'inf'), (('affine', '0x1.0000000000000p+0', '0x0.0p+0'),)),
    ("rho-margin(rho=2)", "0.4"): (('0x0.0p+0', 'inf'), (('affine', '0x1.4000000000000p+2', '0x0.0p+0'),)),
    ("rho-margin(rho=2)", "1.0"): (('0x0.0p+0', 'inf'), (('affine', '0x1.0000000000000p+1', '0x0.0p+0'),)),
    ("rho-margin(rho=2)", "1.7"): (('0x0.0p+0', 'inf'), (('affine', '0x1.2d2d2d2d2d2d3p+0', '0x0.0p+0'),)),
    ("rho-margin(rho=2)", "inf"): (('0x0.0p+0', 'inf'), (('affine', '0x1.0000000000000p+0', '0x0.0p+0'),)),
    ("quadratic", "0.4"): (
        ('0x0.0p+0', '0x1.47ae147ae147cp-3', 'inf'),
        (('power', '0x1.0000000000000p+0', '0x1.0000000000000p-1'),
         ('affine', '0x1.4000000000000p+0', '0x1.999999999999ap-3')),
    ),
    ("quadratic", "1.0"): (
        ('0x0.0p+0', '0x1.0000000000000p+0', 'inf'),
        (('power', '0x1.0000000000000p+0', '0x1.0000000000000p-1'),
         ('affine', '0x1.0000000000000p-1', '0x1.0000000000000p-1')),
    ),
    ("quadratic", "1.7"): (
        ('0x0.0p+0', '0x1.71eb851eb851ep+1', 'inf'),
        (('power', '0x1.0000000000000p+0', '0x1.0000000000000p-1'),
         ('affine', '0x1.2d2d2d2d2d2d3p-2', '0x1.b333333333333p-1')),
    ),
    ("quadratic", "inf"): (('0x0.0p+0', 'inf'), (('power', '0x1.0000000000000p+0', '0x1.0000000000000p-1'),)),
}


def _within_one_ulp(got, want_hex):
    want = float.fromhex(want_hex)
    return got == want or abs(got - want) <= math.ulp(want)


class TestDerivedInverse:
    @pytest.mark.parametrize("key", sorted(_HAND_TYPED_INVERSES))
    def test_matches_hand_typed_inverse_within_one_ulp(self, key):
        label, B = key
        loss = {"hinge": hinge(), "sigmoid(k=3)": sigmoid(3.0), "rho-margin(rho=2)": rho_margin(2.0),
                "quadratic": quadratic()}[label]
        inv = transform_inverse(loss, HypothesisSpec(LIN, W=1.0, B=float(B)))
        bps, segs = _HAND_TYPED_INVERSES[key]
        assert inv.direction is Direction.INVERSE and not inv.relaxed
        assert len(inv.breakpoints) == len(bps) and len(inv.segments) == len(segs)
        assert all(_within_one_ulp(got, want) for got, want in zip(inv.breakpoints, bps))
        for seg, (kind, *coefs) in zip(inv.segments, segs):
            assert seg.kind == kind
            assert all(_within_one_ulp(got, want) for got, want in zip(seg.coefficients, coefs))
        # a zero intercept stays +0.0 (no "-0.0" in the JSON)
        assert all(math.copysign(1.0, c) > 0 for s in inv.segments for c in s.coefficients)

    def test_quadratic_knot_kept_while_representable(self):
        # 2B*B still fits a float at B = 9e153, so the knot B^2 stays; past
        # that it overflows and the inverse is sqrt(y), as for B = inf
        kept = transform_inverse(quadratic(), HypothesisSpec(LIN, W=1.0, B=9e153))
        assert kept.breakpoints == (0.0, 9e153 * 9e153, math.inf)
        assert [s.kind for s in kept.segments] == ["power", "affine"]
        unbounded = transform_inverse(quadratic(), HypothesisSpec(LIN, W=1.0, B=math.inf))
        for B in (1.3e154, 1e200, 1e308):
            dropped = transform_inverse(quadratic(), HypothesisSpec(LIN, W=1.0, B=B))
            assert (dropped.breakpoints, dropped.segments) == (unbounded.breakpoints, unbounded.segments)

    def test_segment_inverse_roundtrip(self):
        for seg, top in (
            (Segment("affine", (2.5, -0.3)), 2.0),
            (Segment("power", (0.7, 2.0)), 2.0),
            (Segment("power", (3.0, 0.5)), 2.0),
            (Segment("entropy"), 1.0),
            (Segment("exp_branch"), 1.0),
        ):
            ts = np.linspace(0.1, top, 20)
            assert seg.inverse()(seg(ts)) == pytest.approx(ts, rel=1e-12)

    @given(kind=st.sampled_from(["entropy", "exp_branch"]),
           ys=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    @example(kind="entropy", ys=[1.0, 5e-324])
    @example(kind="exp_branch", ys=[1.0, 5e-324])
    def test_inverse_is_the_least_float_preimage(self, kind, ys):
        # on (0, T(1)] = (0, 1]: T(Gamma(y)) >= y > T(the float below Gamma(y))
        forward, ys = Segment(kind), np.asarray(ys)
        ts = forward.inverse()(ys)
        assert np.all(forward(ts) >= ys)
        assert np.all(forward(np.nextafter(ts, 0.0)) < ys)

    def test_no_closed_form_inverse_rejected(self):
        fwd = transform(logistic(), HypothesisSpec(LIN, W=1.0, B=0.8))
        ts = np.linspace(0.0, 1.0, 101)
        assert fwd.inverse()(fwd(ts)) == pytest.approx(ts, abs=1e-12)
        with pytest.raises(ValueError, match="forward"):
            transform_inverse(hinge(), HypothesisSpec(LIN, W=1.0, B=0.8)).inverse()


class TestStructuralInvariants:
    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.label())
    def test_forward_calculus(self, loss):
        for spec in in_scope_specs():
            T = transform(loss, spec)
            # continuity at interior knots
            for knot, left, right in zip(T.breakpoints[1:-1], T.segments, T.segments[1:]):
                assert abs(float(left(knot)) - float(right(knot))) <= 1e-12
            ts = np.linspace(0.0, 1.0, 301)
            vals = T(ts)
            assert np.all(np.diff(vals) >= -1e-12)  # non-decreasing
            rng = np.random.default_rng(1)
            a = rng.uniform(0, 1, 300)
            b = rng.uniform(0, 1, 300)
            mid = T((a + b) / 2.0)
            assert np.all(mid <= 0.5 * (T(a) + T(b)) + 1e-12)  # midpoint convexity

    def test_domain_enforced(self):
        T = transform(hinge(), HypothesisSpec(LIN, W=1.0, B=0.8))
        with pytest.raises(ValueError):
            T(1.5)
        with pytest.raises(ValueError):
            T(-0.2)
        inv = transform_inverse(hinge(), HypothesisSpec(LIN, W=1.0, B=0.8))
        assert inv(3.0) == pytest.approx(3.0 / 0.8)  # inverses extend over R+

    def test_zero_reach_rejected(self):
        with pytest.raises(ValueError):
            transform(hinge(), HypothesisSpec(LIN, W=1.0, B=0.0))
        with pytest.raises(ValueError):
            transform_inverse(hinge(), HypothesisSpec(RELU, W=1.0, B=1.0, Lambda=0.0))

    def test_constructor_rejects_discontinuity(self):
        with pytest.raises(ValueError):
            PiecewiseTransform(
                (0.0, 0.5, 1.0),
                [Segment("affine", (1.0, 0.0)), Segment("affine", (1.0, 0.3))],
                Direction.FORWARD,
            )

    def test_serialization_shape(self):
        T = transform(logistic(), HypothesisSpec(LIN, W=1.0, B=0.8))
        doc = T.to_json_dict()
        assert doc["direction"] == "forward"
        assert [s["kind"] for s in doc["segments"]] == ["entropy", "affine"]
        inv = transform_inverse(quadratic(), HypothesisSpec(LIN, W=1.0, B=0.7))
        doc = inv.to_json_dict()
        assert doc["breakpoints"][-1] == "inf"


class TestEpsilonFloor:
    def test_linear_below_eps(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        T = transform(quadratic(), spec, eps=0.2)
        assert T.eps == 0.2
        assert T(0.1) == pytest.approx((0.04 / 0.2) * 0.1)
        assert T(0.2) == pytest.approx(0.04)
        assert T(0.3) == pytest.approx(0.09)
        assert T(0.0) == 0.0

    def test_eps_validated(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        with pytest.raises(ValueError):
            transform(quadratic(), spec, eps=1.5)

    def test_eps_past_interior_knot_trims_segments(self):
        # logistic knot at tanh(0.4) ~ 0.38; eps beyond it leaves chord + tail
        spec = HypothesisSpec(LIN, W=1.0, B=0.8)
        base = transform(logistic(), spec)
        T = transform(logistic(), spec, eps=0.6)
        assert len(T.segments) == 2
        assert T.breakpoints == (0.0, 0.6, 1.0)
        assert T(0.3) == pytest.approx(float(base(0.6)) / 0.6 * 0.3)
        assert T(0.8) == pytest.approx(float(base(0.8)))

    def test_eps_preserves_convexity_and_monotonicity(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.8)
        for loss in ALL_LOSSES:
            T = transform(loss, spec, eps=0.25)
            ts = np.linspace(0, 1, 201)
            vals = T(ts)
            assert np.all(np.diff(vals) >= -1e-12)
            rng = np.random.default_rng(3)
            a, b = rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)
            assert np.all(T((a + b) / 2) <= 0.5 * (T(a) + T(b)) + 1e-12)

    def test_derivative_bounds_conservative_at_knots(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.5)
        T = transform(quadratic(), spec)
        knot = T.breakpoints[1]
        # left derivative 2t = 1.0, right derivative 2c = 1.0: equal here, so
        # probe the relaxed logistic inverse whose kink is genuine
        inv = transform_inverse(logistic(), spec)
        k = inv.breakpoints[1]
        left = inv.segments[0].derivative(k)
        right = inv.segments[1].derivative(k)
        assert inv.derivative_upper(k) == pytest.approx(max(left, right))
        assert T.derivative_upper(knot) > 0


class TestAdversarialTransform:
    def test_linear_slope(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.8, gamma=0.1)
        T = select_transform(rho_margin(1.0), spec)[0]
        assert T(1.0) == pytest.approx(0.8)

    def test_saturated_bias(self):
        spec = HypothesisSpec(LIN, W=1.0, B=1.5, gamma=0.1)
        T = select_transform(rho_margin(1.0), spec)[0]
        for t in (0.2, 0.7, 1.0):
            assert T(t) == pytest.approx(t)

    def test_relu_relaxation(self):
        spec = HypothesisSpec(RELU, W=1.0, B=0.3, Lambda=2.0, gamma=0.1)
        T = select_transform(rho_margin(1.0), spec)[0]
        assert T(1.0) == pytest.approx(0.6)
        assert "relaxation" in T.note

    def test_negative_results(self):
        spec = HypothesisSpec(LIN, W=1.0, B=1.0, gamma=0.1)
        for loss in (hinge(), sigmoid(1.0), logistic(), exponential(), quadratic()):
            with pytest.raises(NegativeResultError):
                select_transform(loss, spec)[0]

    def test_requires_gamma(self):
        # gamma alone selects the worst-case route: at gamma = 0 rho-margin takes the standard one
        spec = HypothesisSpec(LIN, W=1.0, B=1.0)
        assert select_transform(rho_margin(1.0), spec)[0] == transform(rho_margin(1.0), spec)
        with pytest.raises(ValueError, match="use select_transform"):
            transform(rho_margin(1.0), dataclasses.replace(spec, gamma=0.1))

    def test_definitional_consistency(self):
        # T equals min of the two case-constrained oracle gaps, minimized over x
        loss = rho_margin(1.0)
        spec = HypothesisSpec(LIN, W=1.0, B=0.8, gamma=0.1)
        T = select_transform(loss, spec)[0]
        xs = np.linspace(0.0, 1.0, 9)
        for t in (0.55, 0.75, 0.95):
            t1 = min(
                brute_force_inf(loss, spec, ConditionalPoint(float(x), t), Constraint.ADV_STRADDLE, 1001)
                - brute_force_inf(loss, spec, ConditionalPoint(float(x), t), Constraint.NONE, 1001)
                for x in xs
            )
            half = (t + 1.0) / 2.0
            t2 = min(
                brute_force_inf(loss, spec, ConditionalPoint(float(x), half), Constraint.ADV_SUP_NEGATIVE, 1001)
                - brute_force_inf(loss, spec, ConditionalPoint(float(x), half), Constraint.NONE, 1001)
                for x in xs
            )
            assert min(t1, t2) == pytest.approx(float(T(t)), abs=2e-3)


class TestMassartTransforms:
    def test_quadratic_half_beta_is_identity(self):
        T = select_transform(quadratic(), HypothesisSpec(ALL), 0.5)[0]
        for t in (0.0, 0.4, 1.0):
            assert T(t) == pytest.approx(t)

    def test_exponential_half_beta_multiplier_one(self):
        T = select_transform(exponential(), HypothesisSpec(ALL), 0.5)[0]
        assert 2 * 0.5 / float(T(1.0)) == pytest.approx(1.0)
        assert 1.0 - math.sqrt(1.0 - 1.0) == pytest.approx(1.0 - 0.0)

    def test_quadratic_quarter_beta_chord(self):
        T = select_transform(quadratic(), HypothesisSpec(ALL), 0.25)[0]
        assert T(0.3) == pytest.approx(0.5 * 0.3)  # chord slope T(0.5)/0.5 = 0.5
        assert T(0.7) == pytest.approx(0.49)

    def test_validation(self):
        with pytest.raises(ValueError):
            select_transform(quadratic(), HypothesisSpec(ALL), 0.7)[0]
        with pytest.raises(ValueError):
            select_transform(hinge(), HypothesisSpec(ALL), 0.25)[0]
        with pytest.raises(ValueError):
            select_transform(quadratic(), HypothesisSpec(LIN, W=1, B=1), 0.25)[0]

    def test_convex_and_anchored(self):
        for loss in (quadratic(), logistic(), exponential()):
            for beta in (0.1, 0.25, 0.5):
                T = select_transform(loss, HypothesisSpec(ALL), beta)[0]
                assert T(0.0) == pytest.approx(0.0, abs=1e-15)
                rng = np.random.default_rng(2)
                a, b = rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)
                assert np.all(T((a + b) / 2) <= 0.5 * (T(a) + T(b)) + 1e-12)


class TestMassartAdversarialTransforms:
    def test_sup_hinge_half_beta_identity(self):
        spec = HypothesisSpec(LIN, W=1.0, B=1.0, gamma=0.1)
        T = select_transform(hinge(), spec, 0.5)[0]
        for t in (0.0, 0.5, 1.0):
            assert T(t) == pytest.approx(t)

    def test_zero_anchored(self):
        spec = HypothesisSpec(LIN, W=1.0, B=0.7, gamma=0.1)
        for loss, beta in ((hinge(), 0.3), (sigmoid(2.0), 0.25)):
            assert select_transform(loss, spec, beta)[0](0.0) == 0.0

    def test_sup_sigmoid_slope(self):
        spec = HypothesisSpec(LIN, W=1.0, B=1.0, gamma=0.1)
        T = select_transform(sigmoid(1.0), spec, 0.25)[0]
        expected = math.tanh(1.0) * (4 * 0.25 / 1.5)
        assert T(0.5) == pytest.approx(0.5 * expected)
        # above the knot: tanh(kB) * (2t - 1)
        assert T(0.9) == pytest.approx(math.tanh(1.0) * 0.8)

    def test_relu_scaling(self):
        spec = HypothesisSpec(RELU, W=1.0, B=0.4, Lambda=1.5, gamma=0.1)
        T = select_transform(hinge(), spec, 0.5)[0]
        assert T(1.0) == pytest.approx(min(0.6, 1.0))

    def test_rejected_families(self):
        spec = HypothesisSpec(LIN, W=1.0, B=1.0, gamma=0.1)
        for loss in (logistic(), exponential(), quadratic(), rho_margin(1.0)):
            with pytest.raises(ValueError):
                select_transform(loss, spec, 0.25)[0]

    def test_numeric_inversion_against_hand_algebra(self):
        # sup-hinge, B=0.7, beta=0.25: knot 0.75, chord slope 0.7*(1/1.5),
        # upper piece 1.4*t - 0.7
        spec = HypothesisSpec(LIN, W=1.0, B=0.7, gamma=0.1)
        T = select_transform(hinge(), spec, 0.25)[0]
        chord = 0.7 * (4 * 0.25 / 1.5)
        assert T(0.75) == pytest.approx(chord * 0.75)
        assert invert_numerically(T, 0.2) == pytest.approx(0.2 / chord, abs=1e-9)
        assert invert_numerically(T, 0.5) == pytest.approx((0.5 + 0.7) / 1.4, abs=1e-9)


_ADV_LIN = HypothesisSpec(LIN, W=1.0, B=0.7, gamma=0.1)
_ADV_RELU = HypothesisSpec(RELU, W=1.0, B=0.3, Lambda=2.0, gamma=0.1)
# one valid input per route: (loss, spec, massart, eps)
_ROUTES = {
    "standard": (hinge(), HypothesisSpec(LIN, W=1.0, B=0.7), None, 0.1),
    "worst-case": (rho_margin(1.0), _ADV_RELU, None, 0.1),
    "massart": (quadratic(), HypothesisSpec(ALL), 0.25, 0.0),
    "massart-worst-case": (hinge(), _ADV_LIN, 0.25, 0.0),
}


def _fault(route, **change):
    loss, spec, massart, eps = _ROUTES[route]
    spec = dataclasses.replace(spec, **{k: v for k, v in change.items() if k in ("cls", "B")})
    return change.get("loss", loss), spec, change.get("massart", massart), change.get("eps", eps)


# single faults on a valid route input, by the exception each must raise;
# the worst-case families' NegativeResultError has its own table below
_SINGLE_FAULTS = {
    "massart-worst-case rho-margin": (_fault("massart-worst-case", loss=rho_margin(1.0)), ValueError),
    **{f"massart {loss.label()}": (_fault("massart", loss=loss), ValueError)
       for loss in (hinge(), sigmoid(1.0), rho_margin(1.0))},
    **{f"{route} eps 0.1": (_fault(route, eps=0.1), ValueError) for route in ("massart", "massart-worst-case")},
    **{f"{route} beta {beta}": (_fault(route, massart=beta), ValueError)
       for route in ("massart", "massart-worst-case") for beta in (0.0, -0.1, 0.7, math.nan)},
    **{f"massart on {cls.value}": (_fault("massart", cls=cls), ValueError) for cls in (LIN, RELU)},
    **{f"{route} on all": (_fault(route, cls=ALL), ValueError) for route in ("worst-case", "massart-worst-case")},
    **{f"{route} B 0": (_fault(route, B=0.0), ValueError)
       for route in ("standard", "worst-case", "massart-worst-case")},
    **{f"{route} eps {eps}": (_fault(route, eps=eps), ValueError)
       for route in ("standard", "worst-case") for eps in (-0.1, 1.5)},
}


class TestRouteTable:
    @pytest.mark.parametrize("route", sorted(_ROUTES))
    def test_each_route_accepts_its_input(self, route):
        fwd, gamma = select_transform(*_ROUTES[route])
        assert fwd.direction is Direction.FORWARD and gamma.direction is Direction.INVERSE

    @pytest.mark.parametrize("name", sorted(_SINGLE_FAULTS))
    def test_single_fault_raises_its_class(self, name):
        args, error = _SINGLE_FAULTS[name]
        with pytest.raises(ValueError) as info:
            select_transform(*args)
        assert type(info.value) is error

    @pytest.mark.parametrize("spec", [_ADV_LIN, _ADV_RELU], ids=["linear", "relu"])
    @pytest.mark.parametrize("massart", [None, 0.25])
    def test_negative_result_exactly_where_the_paper_has_one(self, spec, massart):
        # worst-case convex losses never have a nontrivial transform, hinge and
        # sigmoid only under Massart noise
        for loss in ALL_LOSSES:
            ruled_out = loss.family.value in ("logistic", "exponential", "quadratic") or (
                massart is None and loss.family.value in ("hinge", "sigmoid")
            )
            try:
                select_transform(loss, spec, massart)
                raised = None
            except ValueError as exc:
                raised = type(exc)
            assert (raised is NegativeResultError) == ruled_out, loss.label()


class TestDefinitionalConsistencyKeystone:
    @pytest.mark.parametrize(
        "loss,B",
        [(hinge(), 0.8), (logistic(), 0.8), (exponential(), 0.6), (quadratic(), 0.5), (sigmoid(1.0), 0.8), (rho_margin(1.0), 0.8)],
        ids=lambda v: str(v),
    )
    def test_transform_equals_constrained_oracle_gap(self, loss, B):
        spec = HypothesisSpec(LIN, W=1.0, B=B)
        T = transform(loss, spec)
        xs = np.linspace(0.0, 1.0, 11)
        for t in (0.55, 0.7, 0.9, 1.0):
            best = min(
                brute_force_inf(loss, spec, ConditionalPoint(float(x), t), Constraint.SCORE_NEGATIVE, 4001)
                - brute_force_inf(loss, spec, ConditionalPoint(float(x), t), Constraint.NONE, 4001)
                for x in xs
            )
            assert float(T(2 * t - 1)) == pytest.approx(best, abs=2e-3)


@st.composite
def selector_routes(draw):
    """(loss, spec, massart) on every route of select_transform."""
    cls = draw(st.sampled_from([LIN, RELU]))
    B = draw(st.floats(0.05, 3.0) | st.just(math.inf))
    beta = draw(st.floats(0.01, 0.5))
    route = draw(st.sampled_from(["standard", "sup-rho-margin", "massart", "massart-sup"]))
    if route == "standard":
        spec = draw(st.sampled_from([HypothesisSpec(cls, W=1.0, B=B, Lambda=1.5), HypothesisSpec(ALL)]))
        return draw(st.sampled_from(ALL_LOSSES)), spec, None
    if route == "massart":
        return draw(st.sampled_from([quadratic(), logistic(), exponential()])), HypothesisSpec(ALL), beta
    spec = HypothesisSpec(cls, W=1.0, B=B, Lambda=1.5, gamma=0.1)
    if route == "sup-rho-margin":
        return rho_margin(draw(st.floats(0.1, 2.0))), spec, None
    return draw(st.sampled_from([hinge(), sigmoid(2.0)])), spec, beta


class TestSelectorGammaProperties:
    @given(route=selector_routes(), ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_gamma_inverts_the_forward_on_every_route(self, route, ts):
        fwd, gamma = select_transform(*route)
        assert gamma.direction is Direction.INVERSE
        ts = np.asarray(ts)
        ys = fwd(ts)
        back = gamma(ys)
        if gamma.relaxed:  # the standard upper-bounding relaxation
            assert np.all(back >= ts - 1e-12)
        else:
            assert np.all(np.abs(back - ts) <= 1e-12)
        # non-decreasing, up to the knots' continuity tolerance
        grid = np.sort(np.concatenate([ys, np.linspace(0.0, float(fwd(1.0)), 101)]))
        assert np.all(np.diff(gamma(grid)) >= -1e-12)
        # one array call equals the scalar calls, forward and Gamma, bit for bit
        assert ys.tobytes() == np.array([fwd(float(t)) for t in ts]).tobytes()
        assert back.tobytes() == np.array([gamma(float(y)) for y in ys]).tobytes()

    @given(route=selector_routes(), fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_array_bisection_is_the_scalar_bisection(self, route, fracs):
        fwd, _ = select_transform(*route)
        ys = np.asarray(fracs) * float(fwd(fwd.breakpoints[-1]))
        got = invert_numerically(fwd, ys)
        assert got.shape == ys.shape
        assert got.tobytes() == np.array([_scalar_bisection(fwd, float(y)) for y in ys]).tobytes()
        assert got.tobytes() == np.array([invert_numerically(fwd, float(y)) for y in ys]).tobytes()


    # an eps so small that T(eps) underflows to 0 is refused (no chord to
    # floor with), so the drawn eps start at 1e-6
    @given(route=selector_routes(), eps=st.just(0.0) | st.floats(1e-6, 1.0),
           ts=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20))
    @settings(max_examples=300, deadline=None)
    @example(route=(quadratic(), HypothesisSpec(LIN, W=1.0, B=math.inf), None), eps=0.3, ts=[0.0, 1.0])
    @example(route=(rho_margin(0.5), HypothesisSpec(RELU, W=1.0, B=0.2, Lambda=1.5, gamma=0.1), None),
             eps=0.6, ts=[0.0, 0.61])
    def test_forward_is_non_decreasing_and_midpoint_convex(self, route, eps, ts):
        # Massart-modified transforms are not truncated, so they take eps = 0 only
        loss, spec, massart = route
        fwd, _ = select_transform(loss, spec, massart, eps=0.0 if massart is not None else eps)
        ts = np.sort(ts)
        assert np.all(np.diff(fwd(ts)) >= -1e-12)
        a, b = ts, ts[::-1]
        assert np.all(fwd(0.5 * (a + b)) <= 0.5 * (fwd(a) + fwd(b)) + 1e-12)


def _scalar_bisection(pt, y, tol=1e-12):
    """``invert_numerically``'s bisection one y at a time, as a reference."""
    end = pt.breakpoints[-1]
    top = pt(end)
    y = min(max(y, 0.0), top)
    lo, hi = 0.0, end
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pt(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_AFFINE = Segment("affine", (1.0, 0.0))


class TestInputChecks:
    @pytest.mark.parametrize(
        "breakpoints,segments,match",
        [((0.0, 1.0), (), "one more breakpoint than segments"),
         ((0.0, 0.5, 0.5), (_AFFINE, _AFFINE), "strictly increasing"),
         ((0.1, 1.0), (_AFFINE,), "start at 0")],
    )
    def test_malformed_transform(self, breakpoints, segments, match):
        with pytest.raises(ValueError, match=match):
            PiecewiseTransform(breakpoints, segments, Direction.FORWARD)

    def test_eps_floor_needs_a_positive_chord(self):
        # T(1e-200) = 1e-400 underflows to 0: no chord to floor with
        with pytest.raises(ValueError, match="degenerate chord slope"):
            transform(quadratic(), HypothesisSpec(LIN, W=1.0, B=0.5), eps=1e-200)

    def test_numeric_inversion_refusals(self):
        fwd = transform(hinge(), HypothesisSpec(LIN, W=1.0, B=0.5))
        with pytest.raises(ValueError, match="applies to forward transforms"):
            invert_numerically(fwd.inverse(), 0.1)
        with pytest.raises(ValueError, match="outside transform range"):
            invert_numerically(fwd, 0.6)

    @pytest.mark.parametrize(
        "segment,t,want",
        [(Segment("power", (2.0, 0.5)), 0.0, math.inf), (Segment("power", (2.0, 1.0)), 0.0, 2.0),
         (Segment("power", (2.0, 2.0)), -0.1, 0.0), (Segment("entropy"), 1.0, math.inf),
         (Segment("exp_branch"), 1.0, math.inf)],
    )
    def test_derivative_at_the_domain_edges(self, segment, t, want):
        assert segment.derivative(t) == want

    def test_unknown_segment_kind(self):
        with pytest.raises(ValueError, match="unknown segment kind"):
            Segment("cubic")(0.5)
        with pytest.raises(ValueError, match="unknown segment kind"):
            Segment("cubic").derivative(0.5)
