"""Checks of the closed-form exact margin-loss risks, and a closed-form
oracle for E[C*].

The package's ``bounds._margin_risk`` is closed form for the hinge,
quadratic, rho-margin and exponential losses.  Its reference is the
adaptive Gauss-Kronrod rule ``distributions._gauss_kronrod`` on a
per-component integrand built here from the package's pointwise kernel
(the loss at each node's largest ``bounds._score_kernel`` margin, times the
density), its first panels split at every kink of the integrand, with the
rule's error estimate as the allowance.  A second formula,
``closed_form_risk`` below, derives the same risks for single hypotheses
independently of the package's code.

Every continuous component is a truncated normal, and on each piece between
its breakpoints the hinge, quadratic and rho-margin losses of a linear h are
scale * (root - m)^k in the margin m = a*x + c, k <= 2, plain (m = y(wx + b))
or robust (m = y(wx + b) - gamma*|w|).  With x = mean + std*z the loss is a
polynomial of degree k in z, so its integral against the density is a sum of
the standard normal's partial moments of order 0-2 over the piece:

    M0 = Phi(zu) - Phi(zl),  M1 = phi(zl) - phi(zu),  M2 = M0 + zl*phi(zl) - zu*phi(zu),

Phi's difference taken on the upper tail's side (ndtr(-zl) - ndtr(-zu))
when the piece lies above the mean, as ``TruncNormal._tail`` does.  On a
label-pure distribution (eta is 0 or 1 wherever a component has mass) the
minimal conditional risk C* is the loss at the class's best score: W|x| + B,
or W*max(|x|, gamma) - gamma*W + B for the robust losses, whose pieces split
at x = 0 and x = +-gamma.  No quadrature runs.

The package computes that E[C*] in closed form too, on each label-pure
component of any distribution (by quadrature of the loss at the best score
for the logistic and sigmoid losses).  Its second reference,
``quadrature_e_cstar``, shares none of that code: the package's
``expectation`` of the pointwise closed forms of C*, its first panels split
at the score bound's kinks.

The oracle is independent of the package in its integration only: Phi is
scipy's ``ndtr``, the normal cdf the package's truncated normals use too.
Cost: about 10 us per closed-form risk; a quadrature reference takes
0.2-0.9 ms, in process on a 2-CPU KVM host (Python 3.11, numpy 2.4, scipy 1.17).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import hcbounds
from hcbounds import Exact, risk
from hcbounds.bounds import _expect_min_conditional, _margin_risk, _score_kernel
from hcbounds.conditional import _adversarial_bracket, _min_risk
from hcbounds.distributions import Atom, Component, LabeledDistribution, TruncNormal, _gauss_kronrod, expectation
from hcbounds.distributions import sect7_adversarial, sect7_nonadversarial
from hcbounds.hypotheses import HypothesisClass, HypothesisSpec, LinearHypothesis
from hcbounds.losses import LossFamily, eval_margin_loss, exponential, hinge, logistic, quadratic, rho_margin, sigmoid

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SIGMAS = (0.2, 0.1, 0.05, 0.02, 0.01)


def _kinks(loss) -> tuple:
    if loss.family in (LossFamily.EXPONENTIAL, LossFamily.LOGISTIC, LossFamily.SIGMOID):
        return ()
    return (0.0, loss.rho) if loss.family is LossFamily.RHO_MARGIN else (1.0,)


def _lines(hs, label, gamma) -> list:
    """The margin lines (a, c), margin a*x + c, of the hypotheses hs on label."""
    return [(label * h.w, label * h.b - gamma * abs(h.w)) for h in hs]


def kink_points(loss, hs, gamma) -> list:
    """Every x where the loss at the largest margin over hs may have a kink:
    where a margin line meets a kink of the loss, and where two lines cross."""
    points = []
    for label in (-1, 1):
        lines = _lines(hs, label, gamma)
        points += [(k - c) / a for a, c in lines if a != 0.0 for k in _kinks(loss)]
        points += [(c2 - c1) / (a1 - a2) for i, (a1, c1) in enumerate(lines) for a2, c2 in lines[i + 1:] if a1 != a2]
    return points


def margin_integrand(loss, hs, gamma, c):
    """Component c's integrand: the loss at each node's largest kernel
    margin over hs, times c's density."""
    return lambda xs: eval_margin_loss(loss, np.max([_score_kernel(h.w, h.b, xs, c.label, gamma)[1] for h in hs],
                                                    axis=0)) * c.law.pdf(xs)


def quadrature_risk(loss, dist, hs, gamma) -> tuple:
    """(risk, error estimate) of the loss at each point's largest margin over
    hs: the atoms' losses, and ``_gauss_kronrod`` on each component's
    ``margin_integrand`` with its first panels split at ``kink_points``."""
    margins = [(c.weight, max(a * c.law.x + b for a, b in _lines(hs, c.label, gamma))) for c in dist.atoms()]
    value = math.fsum(weight * float(eval_margin_loss(loss, m)) for weight, m in margins)
    error, points = 0.0, kink_points(loss, hs, gamma)
    for c in dist.continuous():
        val, err = _gauss_kronrod(margin_integrand(loss, hs, gamma, c), c.law.lo, c.law.hi, points)
        value, error = value + c.weight * val, error + c.weight * err
    return value, error


def _piece(loss, m) -> tuple:
    """(scale, root, k): the loss is scale * (root - m')^k on the piece of
    the margin line that holds m."""
    if loss.family is LossFamily.RHO_MARGIN:
        if m <= 0.0:
            return 1.0, 0.0, 0
        return (1.0 / loss.rho, loss.rho, 1) if m < loss.rho else (0.0, 0.0, 0)
    if m >= 1.0:
        return 0.0, 0.0, 0
    return 1.0, 1.0, 1 if loss.family is LossFamily.HINGE else 2


def loss_at(loss, m) -> float:
    scale, root, k = _piece(loss, m)
    return scale * (root - m) ** k


def _moments(zl, zu) -> tuple:
    """The integrals of z^k phi(z) over [zl, zu], k = 0, 1, 2."""
    m0 = float(ndtr(-zl) - ndtr(-zu) if zl > 0.0 else ndtr(zu) - ndtr(zl))
    fl, fu = math.exp(-0.5 * zl * zl) * _INV_SQRT_2PI, math.exp(-0.5 * zu * zu) * _INV_SQRT_2PI
    return m0, fl - fu, m0 + zl * fl - zu * fu


def _mean_over(loss, law, pieces) -> float:
    """E of loss(a*x + c) under the truncated normal law, for pieces
    (xl, xu, a, c) that tile its support."""
    mu, sd = law.mean, law.std
    total = 0.0
    for xl, xu, a, c in pieces:
        cuts = {xl, xu, *((k - c) / a for k in _kinks(loss) if a != 0.0)}
        cuts = sorted(x for x in cuts if xl <= x <= xu)
        for lo, hi in zip(cuts, cuts[1:]):
            scale, root, k = _piece(loss, a * (0.5 * (lo + hi)) + c)
            d, e = root - (a * mu + c), a * sd  # root - m = d - e*z
            m0, m1, m2 = _moments((lo - mu) / sd, (hi - mu) / sd)
            total += scale * (m0, d * m0 - e * m1, d * d * m0 - 2.0 * d * e * m1 + e * e * m2)[k]
    return total / _moments((law.lo - mu) / sd, (law.hi - mu) / sd)[0]


def closed_form_risk(loss, h, dist, gamma=0.0) -> float:
    """The hinge, quadratic or rho-margin risk of h, robust for gamma > 0."""
    w, b, shift = h.w, h.b, gamma * abs(h.w)
    total = math.fsum(c.weight * loss_at(loss, c.label * (w * c.law.x + b) - shift) for c in dist.atoms())
    for c in dist.continuous():
        pieces = [(c.law.lo, c.law.hi, c.label * w, c.label * b - shift)]
        total += c.weight * _mean_over(loss, c.law, pieces)
    return total


def closed_form_e_cstar(loss, spec, dist) -> float:
    """E[C*] of the hinge, quadratic or rho-margin loss over a linear class
    (robust for spec.gamma > 0) on a label-pure distribution."""
    labels = {}
    for c in dist.atoms():
        labels.setdefault(c.law.x, set()).add(c.label)
    comps = dist.continuous()
    if any(len(ys) > 1 for ys in labels.values()) or any(
        o.label != c.label and o.law.lo <= c.law.hi and c.law.lo <= o.law.hi for c in comps for o in comps
    ):
        raise ValueError("closed_form_e_cstar needs a label-pure distribution")
    W, B, g = spec.W, spec.B, spec.gamma
    total = math.fsum(c.weight * loss_at(loss, W * max(abs(c.law.x), g) - g * W + B) for c in dist.atoms())
    for c in comps:
        cuts = sorted({c.law.lo, c.law.hi, *(x for x in (-g, 0.0, g) if c.law.lo < x < c.law.hi)})
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            mid = 0.5 * (lo + hi)
            a = 0.0 if abs(mid) <= g else math.copysign(W, mid)  # the score is B where |x| <= gamma
            pieces.append((lo, hi, a, B - g * W if a else B))
        total += c.weight * _mean_over(loss, c.law, pieces)
    return total


# a component whose support starts 10 standard deviations above its mean
FAR_TAIL = LabeledDistribution((
    Component(0.25, -1, Atom(0.3)),
    Component(0.375, 1, TruncNormal(0.5, 1.0, 0.0, 0.05)),
    Component(0.375, -1, TruncNormal(-1.0, 0.2, 0.0, 0.3)),
))


def seeded_case(seed, losses):
    """(loss, spec, h, dist): a linear class and an h in it, drawn as the
    benchmark's bound pool draws them; robust (gamma 0.1) for seeds 2 and 3
    of every 4, on ``FAR_TAIL`` for every seventh seed."""
    rng = np.random.default_rng([0xCF, seed])
    make = losses[seed % len(losses)]
    loss = make(float(rng.uniform(0.5, 1.5))) if make in (rho_margin, sigmoid) else make()
    gamma = 0.1 if seed % 4 >= 2 else 0.0
    W, B = float(rng.uniform(0.5, 6.0)), float(rng.uniform(0.1, 1.0))
    spec = HypothesisSpec(HypothesisClass.LINEAR, W=W, B=B, gamma=gamma)
    h = LinearHypothesis((float(rng.uniform(-W, W)),), float(rng.uniform(-B, B)))
    sigma = SIGMAS[seed % len(SIGMAS)]
    if seed % 7 == 6:
        return loss, spec, h, FAR_TAIL
    return loss, spec, h, sect7_adversarial(sigma, gamma) if gamma else sect7_nonadversarial(sigma)


def test_partial_moments_on_the_whole_line_and_a_far_tail():
    assert _moments(-40.0, 40.0) == (1.0, 0.0, 1.0)
    # Mills ratio: above z = 10, M0 = phi(10)/10 * (1 - 1/100 + 3/10^4 - ...), M1 = phi(10)
    m0, m1, m2 = _moments(10.0, 40.0)
    phi = math.exp(-50.0) * _INV_SQRT_2PI
    assert m0 == pytest.approx(phi / 10.0 * (1.0 - 1e-2 + 3e-4 - 1.5e-5), rel=2e-6)
    assert (m1, m2) == (phi, pytest.approx(m0 + 10.0 * phi, rel=1e-15))


@pytest.mark.parametrize("seed", range(24))
def test_risk_matches_the_closed_form(seed):
    loss, spec, h, dist = seeded_case(seed, (hinge, quadratic, rho_margin))
    value, _, quad_err = risk(loss, h, dist, Exact(), spec.gamma, with_error=True)
    assert abs(value - closed_form_risk(loss, h, dist, spec.gamma)) <= quad_err + 1e-12


def corners(seed, spec, h) -> list:
    """The 4 corners of a seeded cell of the margin-loss search's kind: a
    (w, b) box in the class with w of one sign, one corner at h."""
    rng = np.random.default_rng([0xCE, seed])
    dw, db = float(rng.uniform(0.05, 1.0)) * spec.W, float(rng.uniform(0.05, 1.0)) * spec.B
    w2 = h.w - dw if h.w > 0.0 else min(h.w + dw, 0.0)
    b2 = max(h.b - db, -spec.B) if rng.integers(2) else min(h.b + db, spec.B)
    return [LinearHypothesis((w,), b) for w in (h.w, w2) for b in (h.b, b2)]


CLOSED_FORM_LOSSES = (hinge, quadratic, rho_margin, exponential)


@pytest.mark.parametrize("envelope", [False, True], ids=["one-hypothesis", "4-corner-envelope"])
@pytest.mark.parametrize("seed", range(24))
def test_closed_form_risk_matches_the_quadrature(seed, envelope):
    # plain and robust, sect7 presets and FAR_TAIL (every seventh seed)
    loss, spec, h, dist = seeded_case(seed, CLOSED_FORM_LOSSES)
    hs = corners(seed, spec, h) if envelope else [h]
    value, err = _margin_risk(loss, dist, hs, spec.gamma)
    want, quad_err = quadrature_risk(loss, dist, hs, spec.gamma)
    assert err == 0.0
    assert abs(value - want) <= quad_err + 1e-12


@pytest.mark.parametrize("loss", [logistic(), sigmoid(2.0)], ids=lambda l: l.label())
def test_logistic_and_sigmoid_risks_integrate_the_same_integrand(loss):
    # the package integrates its margin lines, the reference the kernel's margins; both split where lines cross
    _, spec, h, dist = seeded_case(5, CLOSED_FORM_LOSSES)
    hs = corners(5, spec, h)
    value, err = _margin_risk(loss, dist, hs, 0.1)
    want, quad_err = quadrature_risk(loss, dist, hs, 0.1)
    assert 0.0 < err and abs(value - want) <= err + quad_err + 1e-12


def test_import_leaves_scipy_special_to_the_first_risk():
    # importing scipy.special costs a process about 23 MB and 0.2 s, which
    # oracle-check never needs; a fresh interpreter, about 0.5 s
    script = (
        "import sys, hcbounds\n"
        "print('scipy.special' in sys.modules)\n"
        "h, d = hcbounds.LinearHypothesis((-0.5,), 0.1), hcbounds.sect7_nonadversarial(0.05)\n"
        "print(hcbounds.risk(hcbounds.hinge(), h, d, hcbounds.Exact())[0] > 0.0, 'scipy.special' in sys.modules)\n"
    )
    src = str(Path(hcbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "True", "True"]


@pytest.mark.parametrize("seed", range(24))
def test_expected_min_conditional_matches_the_closed_form(seed):
    # no closed C* for the robust quadratic loss
    loss, spec, h, dist = seeded_case(seed, (hinge, rho_margin) if seed % 4 >= 2 else (hinge, quadratic, rho_margin))
    value, quad_err = _expect_min_conditional(loss, spec, dist)
    assert abs(value - closed_form_e_cstar(loss, spec, dist)) <= quad_err + 1e-12


ITEM_3 = ("rho-margin's standard route is the one E[C*] left on the quadrature, which passes no kink points, "
          "and whose error estimate misses the score bound's kink")


@pytest.mark.parametrize("loss, W, B, sigma, want", [
    pytest.param(rho_margin(0.7959584781912772), 2.5784703113736116, 0.5359267221846399, 0.1,
                 8.118138888661654e-06, marks=pytest.mark.xfail(strict=True, reason=ITEM_3), id="op-28-3"),
    pytest.param(quadratic(), 4.35302933339056, 0.4672866929652578, 0.02, 0.1262379878067254, id="op-31-2"),
])
def test_expected_min_conditional_of_the_pool_kinks(loss, W, B, sigma, want):
    # the benchmark's bound pool ops (slot, position) (28, 3) and (31, 2); the
    # quadrature read 0.0 for the first and, before E[C*] was closed form on
    # label-pure components, 1.5e-12 low, past its error estimate 7.6e-14,
    # for the second
    spec, dist = HypothesisSpec(HypothesisClass.LINEAR, W=W, B=B), sect7_nonadversarial(sigma)
    assert closed_form_e_cstar(loss, spec, dist) == pytest.approx(want, rel=1e-13)
    value, quad_err = _expect_min_conditional(loss, spec, dist)
    assert abs(value - want) <= quad_err + 1e-12


def quadrature_e_cstar(loss, spec, dist) -> tuple:
    """(E[C*], error estimate) by the package's quadrature, ``expectation``
    of the pointwise closed forms of C*, its first panels split at the score
    bound's kinks: x = 0 and +-gamma, and +-|x| where the class's best score
    W*max(|x|, gamma) - gamma*W + B (W|x| + B at gamma = 0) meets a kink of
    the loss."""
    W, B, g = spec.W, spec.B, spec.gamma
    cstar = (lambda x, t: _adversarial_bracket(loss, spec)(x, t)[0]) if spec.adversarial else _min_risk(loss, spec)
    knees = [x for x in ((k - B) / W + g for k in _kinks(loss)) if x >= g] if W > 0.0 else []
    points = [s * x for x in (0.0, g, *knees) for s in (-1.0, 1.0)]
    return expectation(dist, lambda x, e: cstar(np.abs(x), e), points=points, with_error=True)


# two +1 components that overlap (label-pure), apart from the -1 component
SAME_LABEL_OVERLAP = LabeledDistribution((
    Component(0.1, -1, Atom(0.95)),
    Component(0.3, 1, TruncNormal(0.05, 1.0, 0.3, 0.2)),
    Component(0.3, 1, TruncNormal(0.4, 0.8, 0.6, 0.05)),
    Component(0.3, -1, TruncNormal(-1.0, -0.05, -0.2, 0.3)),
))
# a +1 component that meets the -1 component (label-mixed), and a label-pure one apart
LABEL_MIXED = LabeledDistribution((
    Component(0.1, 1, Atom(-0.9)),
    Component(0.35, 1, TruncNormal(-0.3, 1.0, 0.4, 0.3)),
    Component(0.35, -1, TruncNormal(-0.5, 0.2, -0.1, 0.2)),
    Component(0.2, -1, TruncNormal(-1.0, -0.6, -0.8, 0.1)),
))
LIN = HypothesisClass.LINEAR


def _case_id(value) -> str:
    return value.label() if hasattr(value, "label") else f"gamma={value:g}"


def _check_e_cstar(loss, spec, dist, label_mixed=False):
    """The package's E[C*] within both error estimates of the quadrature
    reference; its own estimate is 0 unless it integrated: the logistic and
    sigmoid losses (0 where their integrand is), or a label-mixed component."""
    value, err = _expect_min_conditional(loss, spec, dist)
    want, quad_err = quadrature_e_cstar(loss, spec, dist)
    if loss.family not in (LossFamily.LOGISTIC, LossFamily.SIGMOID):
        assert (err > 0.0) == label_mixed
    assert abs(value - want) <= err + quad_err + 1e-12


@pytest.mark.parametrize("seed", [0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14])
def test_closed_form_e_cstar_matches_the_quadrature(seed):
    # standard hinge, quadratic, exponential, logistic and sigmoid (seeds
    # 0-13; 13 on FAR_TAIL), then worst-case hinge, rho-margin and sigmoid
    # (seeds 2-14; 6 on FAR_TAIL): every component is label-pure, so eta is
    # never integrated.  About 1 ms a seed, 2-4 ms for logistic and sigmoid
    standard = seed % 4 < 2
    losses = (hinge, quadratic, exponential, logistic, sigmoid) if standard else (hinge, rho_margin, sigmoid)
    loss, spec, _, dist = seeded_case(seed, losses)
    _check_e_cstar(loss, spec, dist)


E_CSTAR_ROUTES = [(hinge(), 0.0), (quadratic(), 0.0), (exponential(), 0.0), (logistic(), 0.0), (sigmoid(2.0), 0.0),
                  (hinge(), 0.1), (rho_margin(0.7), 0.1), (sigmoid(2.0), 0.1)]


@pytest.mark.parametrize("W, B", [(2.0, math.inf), (0.0, 0.4)], ids=["B-inf", "W-0"])
@pytest.mark.parametrize("loss, gamma", E_CSTAR_ROUTES, ids=_case_id)
def test_closed_form_e_cstar_at_the_class_extremes(loss, gamma, W, B):
    # B = inf puts every best score past the kinks, W = 0 makes it the constant B; under 1 ms each
    spec = HypothesisSpec(LIN, W=W, B=B, gamma=gamma)
    _check_e_cstar(loss, spec, sect7_adversarial(0.1, gamma) if gamma else sect7_nonadversarial(0.05))


@pytest.mark.parametrize("loss, gamma", E_CSTAR_ROUTES, ids=_case_id)
@pytest.mark.parametrize("dist", [SAME_LABEL_OVERLAP, LABEL_MIXED], ids=["same-label-overlap", "label-mixed"])
def test_closed_form_e_cstar_on_overlapping_components(dist, loss, gamma):
    # overlapping components of one label are closed form, or integrate the
    # loss at the best score; a label-mixed one integrates eta.  1-4 ms each
    _check_e_cstar(loss, HypothesisSpec(LIN, W=1.5, B=0.3, gamma=gamma), dist, dist is LABEL_MIXED)
