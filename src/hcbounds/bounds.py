"""Assembled estimation-error bounds and their verification primitives.

Pieces: generalization risks of a concrete linear hypothesis (exact, or
Monte Carlo with standard errors), best-in-class risks at d=1 (the zero-one
target's exactly, by reducing the linear class to thresholds; a margin
loss's by a branch-and-bound over (w, b) that scores with ``risk`` and
bounds cells below by convexity, or by the largest corner margin, until
within 1e-6 or 1,000 hypotheses, reporting the gap as tol), minimizability
gaps (best-in-class risk minus the expected pointwise minimal conditional
risk), and complete bound reports of the form

    target_excess  <=  Gamma(surrogate_excess + M_surrogate) - M_target

where Gamma is the inverse of the estimation-error transform (standard,
worst-case, or Massart-modified) that ``transforms.select_transform`` picks.
Every route applies Gamma the same way: an inverse-direction piecewise
transform, saturating at 1 past its domain.  Both best-in-class risks cancel,
excess + M = R(h) - E[C*], so the verdict reads R(h) - E[C*] of both losses
and no R*_H; ``_split`` alone splits it into excess and gap, for a report's
lhs and M_target and, on request, ``surrogate_split``.  The module also
carries the discrete verifier for the general convex-Psi bound on atom-only
distributions, whose assembled inequality uses the same ``risk`` and E[C*] as
the bound reports and whose pointwise condition uses the array closed forms,
and the constructive no-guarantee demonstration for worst-case convex/sigmoid
surrogates.

Risks are standard at gamma = 0 (sign(0) = +1) and robust, the loss's
supremum over the gamma-ball, at gamma > 0: ``risk``'s gamma, or the spec's
for ``best_in_class_risk``, alone selects the setting.  Exact zero-one risks
are closed-form tail masses.  Exact margin-loss risks (``_margin_risk``,
which also bounds the search's cells) are closed form for the hinge,
quadratic, rho-margin and exponential losses: truncated-normal partial
moments of order 0-2 between the kinks, or a truncated moment generating
function.  E[C*] is closed form on a label-pure component, one that meets
no continuous component of the other label: the same means of the loss at
the class's best score, or nothing where C* is 0 there.  The logistic and
sigmoid risks, and E[C*] on every other component, integrate the truncated
normals through ``distributions._integrate_continuous``, which owns the
quadrature and its tolerances; a report's ``provenance`` key ``quad_err``
sums the error estimates of the quadratures it ran, and the closed forms
add nothing to it.  ``_positive_cells`` certifies where signed sums of
truncated-normal densities are positive, for the zero-one search's turns
and the Massart check's violating mass.  scipy is used only for the normal
cdf, its inverse and ``erfcx``, imported on first use.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass

import numpy as np

from ._runtime import thread_map
from .conditional import ConditionalPoint, _adversarial_bracket, _interval_risk, _min_risk, brute_force_inf
from .distributions import LabeledDistribution, QuadratureError, _integrate_continuous, _map_sample_blocks
from .distributions import _expectation, _meeting, _require_integer
from .distributions import _EPMACH, _SAMPLE_BLOCK, _UFLOW  # machine epsilon, a sampling block, least normal double
from .hypotheses import HypothesisClass, HypothesisSpec, LinearHypothesis
from .losses import (
    ZERO_ONE,
    LossFamily,
    MarginLoss,
    ZeroOneLoss,
    eval_margin_loss,
)
from .transforms import PiecewiseTransform, select_transform

__all__ = [
    "Exact",
    "MonteCarlo",
    "Target",
    "BestInClass",
    "BoundReport",
    "PsiBoundCheck",
    "NegativeResultDemo",
    "risk",
    "best_in_class_risk",
    "assemble_bound",
    "surrogate_split",
    "verify_psi_bound_discrete",
    "negative_result_demo",
]

_BIC_GAP = 1e-6  # the margin-loss search's target gap between its least score and least cell bound
_BIC_BUDGET = 1000  # hypotheses the margin-loss search may score
_SIDE_ULPS = 16  # a threshold breakpoint's neighbours, in ulps of the kernel's operands
_SIGN_WIDTH = 2.0**-39  # the sign-change finder's narrowest cell, the reach of 40 bisections of [-1, 1]
_SIGN_CELLS = 1 << 12  # the most cells one round of the sign-change finder may make by cutting
_PSI_TOL = 1e-10  # rounding allowance of the discrete verifier's checks
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class Exact:
    pass


@dataclass(frozen=True)
class MonteCarlo:
    n: int
    seed: int = 0

    def __post_init__(self):
        _require_integer("Monte Carlo sample size", self.n)
        _require_integer("Monte Carlo seed", self.seed)
        if self.n < 2:
            raise ValueError(f"Monte Carlo sample size must be >= 2 for a standard error, got {self.n}")


class Target(enum.Enum):
    ZERO_ONE = "zero-one"
    ADVERSARIAL_ZERO_ONE = "adversarial-zero-one"


# ---------------------------------------------------------------------------
# pointwise losses of a linear hypothesis at d=1
# ---------------------------------------------------------------------------


def _score_kernel(w, b, xs, ys, gamma, out=None):
    """(err, arg) for the scores s = w*x + b at points xs with labels ys in {-1, +1}.

    w and b broadcast against xs: scalars for one hypothesis on a sample, or
    a (w, b) grid against one atom or a quadrature rule.  err is the zero-one
    error indicator (bool): at gamma = 0 sign(s) != y, sign(0) = +1; at
    gamma > 0 whether the gamma-ball reaches 0 or the wrong side.  arg is the
    margin at which every loss is taken: y*s, or the worst-case margin
    np.where(y > 0, lo, -hi) over the ball [lo, hi] = [s - gamma|w|,
    s + gamma|w|].  Given ``out``, a float64 array of xs's shape (xs itself
    included), the score and arg are computed in it (w and b scalars), and
    arg is out.
    """
    ys = np.asarray(ys)
    if out is not None:
        s = np.multiply(xs, w, out=out)
        s += b
    else:
        s = w * np.asarray(xs, dtype=float) + b
    if gamma > 0:
        s -= (gamma * np.abs(w)) * ys  # lo where y = +1, hi where y = -1
        s *= ys
        return s <= 0.0, s
    err = (s >= 0.0) != (ys > 0)
    s *= ys
    return err, s


def _loss_values(loss, err, arg, out=None):
    """The pointwise loss from the kernel's (err, arg), written into out
    (a float64 array of arg's shape) when it is given."""
    if isinstance(loss, ZeroOneLoss):
        return np.multiply(err, 1.0, out=out)  # 0.0 or 1.0, as err.astype(float)
    return eval_margin_loss(loss, arg, out)


def _pairwise_sum(start, m, leaf_sum):
    """The float64 sum over [start, start + m) in the order of numpy's
    ``pairwise_sum`` (numpy/_core/src/umath/loops_utils.h.src), which splits
    above 128 values at m/2 rounded down to a multiple of 8, from the sums
    ``leaf_sum(start, stop)`` of leaves of at most ``_SAMPLE_BLOCK`` values."""
    if m <= _SAMPLE_BLOCK:
        return leaf_sum(start, start + m)
    half = m // 2 - m // 2 % 8
    return _pairwise_sum(start, half, leaf_sum) + _pairwise_sum(start + half, m - half, leaf_sum)


def _leaf_totals(n, leaf_sums) -> list:
    """Totals of several sets of n values, each the float64 sum in
    ``_pairwise_sum``'s order.

    ``leaf_sums(start, stop)`` returns the sums of every set's values
    [start, stop), one per set.  It runs once for each of ``_pairwise_sum``'s
    leaves over n values, on ``thread_map``, so it may run on several threads
    at once; the totals do not depend on how many.  Overflow and invalid
    values pass silently, in each leaf (numpy's error state is per thread)
    and in the totals, leaving inf or NaN for the caller to check."""

    def leaf(bounds):
        with np.errstate(over="ignore", invalid="ignore"):
            return leaf_sums(*bounds)

    leaves = []
    _pairwise_sum(0, n, lambda start, stop: leaves.append((start, stop)) or 0.0)
    by_start = dict(zip((start for start, _ in leaves), thread_map(leaf, leaves)))
    with np.errstate(over="ignore", invalid="ignore"):
        return [_pairwise_sum(0, n, lambda start, stop: by_start[start][k]) for k in range(len(by_start[0]))]


def _squares_sum(v, mean):
    """The sum of v's squared deviations from mean, computed in place in v
    (a float64 array) as ``np.var`` computes it."""
    v -= mean
    v *= v
    return v.sum()


def _mean_m2(v):
    """(mean, M2) of a float64 array v, which this overwrites, M2 being the
    sum of squared deviations from the mean, bit for bit as ``np.mean`` and
    ``np.var`` compute them."""
    mean = v.sum() / v.size
    return float(mean), float(_squares_sum(v, mean))


def _mc_risks(losses, h, dist, mode, gamma) -> list:
    """Monte Carlo (risk, stderr) of h under each loss, from one shared sample.

    Each 2^16-draw sampling block is scored in place and reduced on its
    worker to (count, mean, M2) per loss by ``_mean_m2``, the loss values
    taking a spare buffer of the block.  The blocks merge in
    block order by the pairwise update of Chan, Golub and LeVeque, so memory
    does not grow with n and the result is the same at every thread count;
    with one block (n <= 2^16) it is bit-identical to ``np.mean`` and
    ``np.std(ddof=1) / sqrt(n)`` over the sample, with more it differs from
    them by rounding only.  A loss that overflows in any block reads inf.
    """

    def block_stats(start, xs, ys, spare):
        # numpy's error state is per thread, so each block sets its own; an overflow is inf, its M2 NaN
        with np.errstate(over="ignore", invalid="ignore"):
            err, arg = _score_kernel(h.w, h.b, xs, ys, gamma, out=xs)
            return [(xs.size, *_mean_m2(_loss_values(loss, err, arg, spare[0]))) for loss in losses]

    out = []
    for by_block in zip(*_map_sample_blocks(dist, mode.n, mode.seed, block_stats)):  # one loss's blocks
        n, mean, m2 = by_block[0]
        for nb, mean_b, m2_b in by_block[1:]:
            delta, n_a, n = mean_b - mean, n, n + nb
            if math.isinf(mean) or math.isinf(mean_b):  # an overflowed loss stays inf, which inf - inf is not
                mean = m2 = math.inf
                continue
            mean += delta * nb / n
            m2 += m2_b + delta * delta * n_a * nb / n
        out.append((mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)))
    return out


def _largest_margins(hs, gamma, xs, label):
    """Each point's largest margin over the linear hypotheses hs."""
    margins = _score_kernel(hs[0].w, hs[0].b, xs, label, gamma)[1]
    for h in hs[1:]:
        margins = np.maximum(margins, _score_kernel(h.w, h.b, xs, label, gamma)[1])
    return margins


def _margin_integrand(loss, hs, gamma, c):
    """Continuous component c's integrand of ``_margin_risk``: the loss at
    each node's largest margin over hs, times c's density."""
    return lambda xs: eval_margin_loss(loss, _largest_margins(hs, gamma, xs, c.label)) * c.law.pdf(xs)


def _loss_piece(loss, m) -> tuple:
    """(scale, root, k): the hinge, quadratic or rho-margin loss is
    scale*(root - m')^k on the piece of the margin line that holds m."""
    if loss.family is LossFamily.RHO_MARGIN:
        if m <= 0.0:
            return 1.0, 0.0, 0
        return (1.0 / loss.rho, loss.rho, 1) if m < loss.rho else (0.0, 0.0, 0)
    if m >= 1.0:
        return 0.0, 0.0, 0
    return 1.0, 1.0, 1 if loss.family is LossFamily.HINGE else 2


def _exp_to(x: float) -> float:
    """e^x, inf past the largest double instead of ``OverflowError``."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _closed_form_mean(loss, law, lines) -> float:
    """E of the loss at the largest of the margin lines a*x + c under the
    truncated normal law, in closed form.  The arithmetic is on Python
    floats, so an overflow is inf, never an exception, a warning or NaN.

    The support is cut where two lines cross and where a line meets a kink;
    on each piece the largest line and the loss's form are those at its
    midpoint.  With x = mean + std*z a piece's loss is scale*(d - e*z)^k
    (hinge, quadratic, rho-margin; d = root - (a*mean + c), e = a*std, k <= 2),
    whose integral against phi is d^k*M0 - ... from the standard normal's
    partial moments M0 = Phi(zu) - Phi(zl), M1 = phi(zl) - phi(zu) and
    M2 = M0 + zl*phi(zl) - zu*phi(zu), M0 taken on the upper tail's side
    (ndtr(-zl) - ndtr(-zu)) above the mean, as ``TruncNormal._tail`` does;
    or e^-(a*x + c) (exponential), whose integral is the truncated MGF
    e^(-(a*mean + c) + e^2/2)*(Phi(zu + e) - Phi(zl + e)).  Where t = z + e
    keeps one sign over the piece that difference is taken on its tail's
    side through erfcx, e^(t^2/2)*Phi(-t) = erfcx(t/sqrt 2)/2, so that the
    MGF's exponent and the tail's never meet as inf*0.  A piece whose
    integral of a non-negative loss comes out NaN overflowed: it is inf.
    """
    from scipy.special import erfcx, ndtr  # scipy.special is imported on first use

    mu, sd = law.mean, law.std
    lo, hi = law.lo, law.hi
    fam = loss.family
    kinks = () if fam is LossFamily.EXPONENTIAL else (0.0, loss.rho) if fam is LossFamily.RHO_MARGIN else (1.0,)
    cuts = {lo, hi}
    for i, (a, c) in enumerate(lines):
        if a != 0.0:
            cuts.update((k - c) / a for k in kinks)
        cuts.update((c2 - c) / (a - a2) for a2, c2 in lines[i + 1 :] if a2 != a)
    xs = sorted(x for x in cuts if lo <= x <= hi)  # NaN and the far side of the support drop out
    zs = [(x - mu) / sd for x in xs]
    cdf = ndtr(np.array(zs + [-z for z in zs])).tolist()
    upper = cdf[len(zs) :]  # Phi(-z)
    dens = [math.exp(-0.5 * z * z) * _INV_SQRT_2PI for z in zs]
    total = 0.0
    for i in range(len(xs) - 1):
        xl, xu, zl, zu = xs[i], xs[i + 1], zs[i], zs[i + 1]
        mid = 0.5 * (xl + xu)
        a, c = max(lines, key=lambda line: line[0] * mid + line[1])
        e = a * sd
        if fam is LossFamily.EXPONENTIAL:
            tl, tu = zl + e, zu + e
            if tl > 0.0 or tu < 0.0:  # e^(-(a*x + c) - z^2/2)*erfcx(+-t/sqrt 2)/2 is e^(MGF exponent)*Phi(-+t)
                s = 1.0 if tl > 0.0 else -1.0
                v = 0.5 * s * (_exp_to(-(a * xl + c) - 0.5 * zl * zl) * float(erfcx(s * tl * _SQRT_HALF))
                               - _exp_to(-(a * xu + c) - 0.5 * zu * zu) * float(erfcx(s * tu * _SQRT_HALF)))
            else:
                diff, power = float(ndtr(tu) - ndtr(tl)), -(a * mu + c) + 0.5 * e * e
                if not diff > 0.0:
                    continue
                v = _exp_to(power) * diff if power < 700.0 else _exp_to(power + math.log(diff))
        else:
            scale, root, k = _loss_piece(loss, a * mid + c)
            if scale == 0.0:
                continue
            m0 = upper[i] - upper[i + 1] if zl > 0.0 else cdf[i + 1] - cdf[i]
            if m0 <= 0.0:
                continue
            d = root - (a * mu + c)
            if k == 0:
                v = m0
            else:
                m1 = dens[i] - dens[i + 1]
                if k == 1:
                    v = d * m0 - e * m1
                else:
                    m2 = m0 + (zl * dens[i] if dens[i] else 0.0) - (zu * dens[i + 1] if dens[i + 1] else 0.0)
                    v = d * d * m0 - 2.0 * d * e * m1 + e * e * m2
            v *= scale
        total += v if v >= 0.0 else 0.0 if v < 0.0 else math.inf
    return total / law._mass


def _margin_risk(loss, dist, hs, gamma) -> tuple:
    """(risk, error estimate) of the margin loss taken at each point's
    largest margin over the linear hypotheses hs: the atoms summed, then each
    truncated normal's part added, in component order.  For hs = (h,) it is
    the exact risk of h.

    Hinge, quadratic, rho-margin and exponential risks are closed form
    (``_closed_form_mean``, error estimate 0); on a component of label y the
    margins are the lines y*(w*x + b) - gamma*|w|.  Logistic and sigmoid
    risks, which have no kinks, integrate ``_margin_integrand`` by
    ``distributions._integrate_continuous``.  An overflowing loss makes the
    risk inf, with no floating-point warning; the quadrature raises
    ``QuadratureError`` on it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        atoms = sum(c.weight * float(eval_margin_loss(loss, _largest_margins(hs, gamma, c.law.x, c.label)))
                    for c in dist.atoms())
        if loss.family in (LossFamily.LOGISTIC, LossFamily.SIGMOID):
            return _integrate_continuous(dist.continuous(), lambda c: _margin_integrand(loss, hs, gamma, c), (), atoms)
    total = atoms
    for c in dist.continuous():
        lines = list(dict.fromkeys((c.label * h.w, c.label * h.b - gamma * abs(h.w)) for h in hs))
        if c.weight:
            total += c.weight * _closed_form_mean(loss, c.law, lines)
    return total, 0.0


def risk(
    loss,
    h: LinearHypothesis,
    dist: LabeledDistribution,
    mode=Exact(),
    gamma: float = 0.0,
    with_error: bool = False,
):
    """Generalization risk of h; returns (value, stderr). stderr is 0 in Exact mode.

    gamma = 0 gives the standard risk (sign(0) = +1), gamma > 0 the robust
    one (``_score_kernel``); a gamma outside [0, 1), NaN included, raises
    ``ValueError``.  MonteCarlo mode reduces the sample block by block
    (``_mc_risks``).  Exact mode takes the zero-one risk from closed-form
    tail masses and a margin loss's risk from ``_margin_risk``; a quadrature
    error estimate above 1e-8 raises ``QuadratureError``.  With
    ``with_error`` returns (value, stderr, quad_err), quad_err being the
    components' error estimates weighted like their risks (0 unless the
    logistic or sigmoid quadrature ran).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    quad_err = se = 0.0
    if isinstance(mode, MonteCarlo):
        ((value, se),) = _mc_risks((loss,), h, dist, mode, gamma)
    elif isinstance(loss, ZeroOneLoss):
        value = float(_zero_one_risk(dist, h.w, h.b, gamma))
    else:
        value, quad_err = _margin_risk(loss, dist, (h,), gamma)
    return (value, se, quad_err) if with_error else (value, se)


# ---------------------------------------------------------------------------
# best-in-class risk (d=1): thresholds for zero-one, branch-and-bound for margin losses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BestInClass:
    value: float
    tol: float  # value less tol is at most the infimum, to the quadrature's error estimates
    w: float = math.nan
    b: float = math.nan


def _error_mass(law, label, w, b, gamma):
    """Exact zero-one error mass of the scores w*x + b (w, b broadcast) on one
    truncated normal with the given label.

    The kernel's margin at x is margin0 + label*w*x.  For w != 0 the errors
    fill the half-line beyond the x where it crosses 0; that threshold is a
    null set, so its strictness does not matter.  For w = 0 the score is the
    constant b, and the kernel's indicator decides, strictness included.
    """
    err0, margin0 = _score_kernel(w, b, 0.0, label, gamma)
    with np.errstate(over="ignore", divide="ignore"):  # an infinite threshold clips to a support end
        thr = -margin0 / np.where(w == 0.0, np.nan, label * w)
    cdf = law.cdf(np.where(np.isnan(thr), 0.0, thr))  # the cdf clips +-inf to the support ends
    sided = np.where((w > 0) == (label > 0), cdf, 1.0 - cdf)
    return np.where(w == 0.0, err0, sided)


def _zero_one_risk(dist, w, b, gamma):
    """Exact zero-one (robust for gamma > 0) risk of the scores w*x + b, w
    and b broadcast: the atoms' kernel indicators, then each truncated
    normal's closed-form error mass, added in component order."""
    out = 0.0
    with np.errstate(over="ignore"):  # a score past the largest double is +-inf, on the same side
        for c in dist.atoms():
            out = out + c.weight * _score_kernel(w, b, c.law.x, c.label, gamma)[0]
        for c in dist.continuous():
            out = out + c.weight * _error_mass(c.law, c.label, w, b, gamma)
    return out


def _positive_cells(sums, lo: float, hi: float) -> tuple:
    """(lo, hi, pos) of cells tiling [lo, hi] in order: pos is 1.0 where the
    least of the sums, each sum(a * law.pdf(x + d)) over its terms (a, law,
    d), is > 0 throughout the cell, 0.0 where it is <= 0 throughout, and NaN
    where unsettled.  Terms of one law and shift merge: exact cancels read 0.

    Interval branch-and-bound: over a cell a density lies between the lesser
    of its values at the cell's ends (0 if the cell leaves the support) and
    its value at the mean clipped to the cell (0 if the cell misses it); so
    does the computed one, its peak times exp(-z^2/2) at x + d, as x + d
    rounds monotonically.  A round cuts each cell whose bounds on the least
    sum straddle 0 (lower <= 0 < upper) into 16 while wider than 2^-39, the
    reach of 40 bisections of [-1, 1], unless that makes over 4,096 cells
    (sums that nearly cancel over a wide range); the rest stay unsettled.
    """
    merged = {}
    for k, terms in enumerate(sums):
        for a, law, d in terms:
            merged[k, law, d] = merged.get((k, law, d), 0.0) + a
    which, a, d, s_lo, s_hi, mean, std, peak = np.array(
        [(k, a, d, law.lo, law.hi, law.mean, law.std, float(law._density(law.mean)))
         for (k, law, d), a in merged.items() if a != 0.0]).reshape(-1, 8).T[:, :, None]  # a row per term
    rows = [which[:, 0] == k for k in range(len(sums))]  # each sum's terms
    density = lambda x: np.exp(-0.5 * ((x - mean) / std) ** 2) * peak
    cl, cu, cells = np.array([float(lo)]), np.array([float(hi)]), []
    while cl.size:
        xl, xu = cl + d, cu + d
        inner = np.where((xl >= s_lo) & (xu <= s_hi), np.minimum(density(xl), density(xu)), 0.0)
        outer = np.where((xl <= s_hi) & (xu >= s_lo), density(np.clip(mean, xl, xu)), 0.0)
        lower, upper = a * np.where(a > 0.0, inner, outer), a * np.where(a > 0.0, outer, inner)
        least = np.min([lower[r].sum(axis=0) for r in rows], axis=0)
        most = np.min([upper[r].sum(axis=0) for r in rows], axis=0)
        pos = np.where(least > 0.0, 1.0, np.where(most <= 0.0, 0.0, np.nan))
        cut = np.isnan(pos) & (cu - cl > _SIGN_WIDTH)
        cut &= 16 * np.count_nonzero(cut) <= _SIGN_CELLS
        cells.append((cl[~cut], cu[~cut], pos[~cut]))
        left = cl[cut, None] + (cu - cl)[cut, None] * (np.arange(16) / 16.0)
        cl, cu = left.ravel(), np.concatenate((left[:, 1:], cu[cut, None]), axis=1).ravel()
    cl, cu, pos = map(np.concatenate, zip(*cells))
    order = np.argsort(cl)
    return cl[order], cu[order], pos[order]


def _zero_one_best_linear(spec: HypothesisSpec, dist: LabeledDistribution) -> BestInClass:
    """R*_01,H over the linear class, exactly, by the threshold reduction.

    For w != 0 the kernel's error at (x, y) depends only on the threshold
    theta = -b/w and the orientation s = sign(w): the robust error is
    y*s*(x - theta) <= gamma, the standard one a half-line in x beyond theta.
    With B > 0 every theta lies in the class (|w| = min(W, B/|theta|),
    b = -w*theta), with B = 0 only theta = 0, and w = 0 gives the constants.
    In theta the risk is the atoms' step function plus the truncated
    normals' tail masses, whose derivative is the signed density sum
    sum_c y_c*s*weight_c*pdf_c(theta + gamma*y_c*s).  Its least value is
    taken, or approached from one side, at a breakpoint (an atom location or
    a support end, each +-gamma) or where that derivative turns from negative
    to positive.

    Candidates, in both orientations: every breakpoint, and the thresholds 16
    ulps of the kernel's operands (|breakpoint| + gamma) to either side of it,
    where the kernel's float arithmetic puts an atom at the breakpoint on each
    side; the derivative's turns, the end of each cell where
    ``_positive_cells`` finds it negative, or unsettled, that a cell where it
    is not negative, or unsettled, follows; and the constants.  Each candidate
    is scored as the (w, b) of the class that realizes it by
    ``_zero_one_risk``, the exact risk that ``risk`` computes, so value is the
    risk of the returned (w, b).  It differs from the infimum by rounding
    only, unless two breakpoints lie within a side step of each other: no
    float (w, b) may realize a threshold between them, and a side candidate
    may jump past one.  tol is then the weight of the atoms with a breakpoint
    in such a cluster, which bounds the miss: the candidate a side step beyond
    the cluster sits on the same side of every other breakpoint as any
    threshold within it, so off those atoms the errors agree, and the tail
    masses move by rounding only.  tol is inf where the finder gives up on a
    cell wider than 2^-39, which may hide a turn.
    """
    gamma, W, B = spec.gamma, spec.W, spec.B
    shifts = (-gamma, gamma) if gamma > 0 else (0.0,)
    comps = dist.continuous()
    ends = [e for c in comps for e in (c.law.lo, c.law.hi)]
    points = np.unique(np.add.outer([c.law.x for c in dist.atoms()] + ends, shifts))
    step = _SIDE_ULPS * _EPMACH * (np.abs(points) + gamma) + _UFLOW
    close = np.diff(points) <= np.maximum(step[:-1], step[1:])
    clustered = points[np.append(close, False) | np.insert(close, 0, False)]
    tol = 0.0
    if clustered.size:
        tol = math.fsum(c.weight for c in dist.atoms() if np.isin(np.add(c.law.x, shifts), clustered).any())

    turns, orient = [], []
    # the slope can turn only where densities of both labels meet, 2*gamma apart at most
    if any(o.label != c.label and o.law.lo - 2.0 * gamma <= c.law.hi and c.law.lo - 2.0 * gamma <= o.law.hi
           for c in comps for o in comps):
        for s in (1.0, -1.0):  # the risk falls where -slope > 0, and turns where a falling cell ends
            falls = [(-c.label * s * c.weight, c.law, gamma * c.label * s) for c in comps]
            lo, hi, pos = _positive_cells([falls], -1.0 - gamma, 1.0 + gamma)
            turns.append(hi[:-1][(pos[:-1] != 0.0) & (pos[1:] != 1.0)])  # NaN, unsettled, is neither
            orient.append(np.full(turns[-1].size, s))
            if np.any(np.isnan(pos) & (hi - lo > _SIGN_WIDTH)):  # a cell the finder gave up on may hide a turn
                tol = math.inf

    both = np.concatenate((points - step, points, points + step))
    theta = np.concatenate((both, both, *turns))
    sign = np.concatenate((np.ones(both.size), -np.ones(both.size), *orient))
    if B == 0.0:  # only theta = 0 is in the class
        theta, sign, tol = np.zeros(2), np.array([1.0, -1.0]), 0.0
    if W == 0.0:
        theta, sign, tol = np.zeros(0), np.zeros(0), 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # W where B / |theta| > W or theta = 0
        w = sign * np.where(theta == 0.0, W, np.minimum(W, B / np.abs(theta)))
    b = np.clip(-w * theta, -B, B)
    const = min(B, 1.0)  # any bias of that sign makes w = 0 the same constant; B may be inf
    w, b = np.append(w, (0.0, 0.0)), np.append(b, (const, -const))
    risks = _zero_one_risk(dist, w, b, gamma)
    i = int(np.argmin(risks))
    return BestInClass(float(risks[i]), tol=tol, w=float(w[i]), b=float(b[i]))


def _cell_bound(loss, dist, gamma, score, wl, wh, bl, bh) -> float:
    """A lower bound, never NaN, on the margin-loss risk over the cell
    [wl, wh] x [bl, bh] of a half box (w of one sign), net of the error
    estimates of score(w, b) = (risk, error estimate), taken at the cell's
    centre and corners.

    Hinge, logistic, exponential and quadratic risks are convex in (w, b),
    worst-case forms included (y*(w*x + b) - gamma*|w| is concave), so
    R(p) >= 2*R(centre) - R(2*centre - p) >= 2*R(centre) - max R(corner);
    sigmoid's -phi'' <= M = 4*k^2/sqrt(27) costs it M*((1 + gamma)*hw + hb)^2
    (half widths hw, hb; |x| <= 1; none finite if k^2 or the square overflows).
    Else (rho-margin, or no finite convex bound) ``_margin_risk`` at the
    corners' largest margin: on a half box the margin is linear in (w, b),
    and every loss is non-increasing.
    """
    centre, centre_err = score(0.5 * wl + 0.5 * wh, 0.5 * bl + 0.5 * bh)  # halves first: wl + wh may overflow
    bound = 2.0 * (centre - centre_err) - max(sum(score(w, b)) for w in (wl, wh) for b in (bl, bh))
    if loss.family is LossFamily.SIGMOID:
        width = (1.0 + gamma) * 0.5 * (wh - wl) + 0.5 * (bh - bl)
        bound -= 4.0 * (loss.k * loss.k) / math.sqrt(27.0) * (width * width)  # inf, not OverflowError
    if loss.family is not LossFamily.RHO_MARGIN and bound > -math.inf:
        return bound
    try:
        value, err = _margin_risk(loss, dist, [LinearHypothesis((w,), b) for w in (wl, wh) for b in (bl, bh)], gamma)
    except QuadratureError:
        return -math.inf
    return max(-math.inf, value - err)  # NaN -> -inf


def best_in_class_risk(loss, spec: HypothesisSpec, dist: LabeledDistribution) -> BestInClass:
    """Infimum of the risk over the class at d=1, to within ``tol``: the
    standard risk for spec.gamma = 0, the robust one for spec.gamma > 0.

    Unrestricted class, gamma = 0 only: exact, as the expectation of the
    pointwise minimal conditional risk (the class attains it everywhere).
    Linear class, zero-one loss: ``_zero_one_best_linear``'s threshold
    reduction, for every W and B (B = inf included).  Linear class, margin
    loss, finite W and B: a best-first branch-and-bound over the (w, b) box,
    split first at w = 0.  It halves the cell of least ``_cell_bound``
    (2*R(centre) - max R(corner), or the risk of its largest corner margin)
    across its longer side ((1 + gamma)*hw against hb) until the least
    ``risk`` scored is within 1e-6 of the least open bound, 1,000 hypotheses
    are scored, or no float halves the cell.  value is that least score, at
    the returned (w, b); tol is the gap reached (inf while a cell has no
    finite bound), resting on the quadrature's error estimates where the
    risk integrates (logistic, sigmoid).
    """
    if spec.cls is HypothesisClass.ALL:
        if spec.adversarial:
            raise ValueError("no exact machinery for the unrestricted class under perturbations")
        return BestInClass(_expect_min_conditional(loss, spec, dist)[0], tol=0.0)
    if spec.cls is not HypothesisClass.LINEAR:
        raise ValueError("best-in-class search supports the linear and unrestricted classes")
    if isinstance(loss, ZeroOneLoss):
        return _zero_one_best_linear(spec, dist)
    if not (math.isfinite(spec.W) and math.isfinite(spec.B)):
        raise ValueError("the margin-loss search needs finite W and B")
    gamma = spec.gamma
    scores, best, cells = {}, [math.inf, math.nan, math.nan], []  # best: value, w, b

    def score(w, b):
        if (w, b) not in scores:
            try:
                value, _, err = risk(loss, LinearHypothesis((w,), b), dist, Exact(), gamma, True)
            except QuadratureError:
                value = err = math.inf
            scores[w, b] = value, err
            if value < best[0]:
                best[:] = value, w, b
        return scores[w, b]

    def push(cell):
        heapq.heappush(cells, (_cell_bound(loss, dist, gamma, score, *cell), cell))

    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing loss scores inf
        push((-spec.W, 0.0, -spec.B, spec.B))
        push((0.0, spec.W, -spec.B, spec.B))
        while best[0] - cells[0][0] > _BIC_GAP and len(scores) < _BIC_BUDGET:
            wl, wh, bl, bh = cells[0][1]
            wm, bm = 0.5 * wl + 0.5 * wh, 0.5 * bl + 0.5 * bh
            split_w = (1.0 + gamma) * (wh - wl) >= bh - bl
            if not (wl < wm < wh if split_w else bl < bm < bh):
                break
            heapq.heappop(cells)
            push((wl, wm, bl, bh) if split_w else (wl, wh, bl, bm))
            push((wm, wh, bl, bh) if split_w else (wl, wh, bm, bh))
    value, w, b = best
    return BestInClass(value, tol=max(0.0, value - cells[0][0]), w=w, b=b)


def _pure_lines(loss, spec):
    """The margin lines (a, c) whose largest, a*x + c, is the score at which
    C*(x, 0) = C*(x, 1) takes the loss: the score bound (+-W, B), or on the
    worst-case route (+-W, B - gamma*W) and (0, B), whose largest is
    W*max(|x|, gamma) - gamma*W + B.  [] where C* is 0 at eta in {0, 1}
    (the zero-one loss, the unrestricted class); None where
    ``_closed_form_mean`` does not cover the loss on this route, or the
    class is ReLU."""
    if isinstance(loss, ZeroOneLoss) or spec.cls is HypothesisClass.ALL:
        return []
    if spec.cls is not HypothesisClass.LINEAR:
        return None
    W, B, g, fam = spec.W, spec.B, spec.gamma, loss.family
    if g > 0.0:
        return [(W, B - g * W), (-W, B - g * W), (0.0, B)] if fam in (LossFamily.HINGE, LossFamily.RHO_MARGIN) else None
    # rho-margin's standard route integrates until ROADMAP item 3 re-pins pool op (28, 3) to its closed form
    return [(W, B), (-W, B)] if fam in (LossFamily.HINGE, LossFamily.QUADRATIC, LossFamily.EXPONENTIAL) else None


def _expect_min_conditional(loss, spec, dist) -> tuple:
    """(E_X of the pointwise minimal conditional risk, quadrature error
    estimate), robust for spec.gamma > 0; the lower endpoint when only a
    bracket is available, which upper-bounds the resulting gap.

    On a label-pure continuous component, one that meets no continuous
    component of the other label, eta is that label's 1 or 0 wherever it has
    density and no atom sits, and C* is the loss at the class's best score:
    the component adds nothing where that loss is 0 and
    ``_closed_form_mean`` of ``_pure_lines`` where it covers the loss:
    the hinge, quadratic and exponential losses on the standard route, the
    hinge and rho-margin losses on the worst-case route.  Atoms are summed,
    and the other components integrate through ``_expectation``, so the
    error estimate is theirs alone.  A worst-case convex loss raises
    ``ValueError`` (``_adversarial_bracket``) before anything is computed.
    """
    if isinstance(loss, ZeroOneLoss):
        cstar = lambda x_abs, e: np.minimum(e, 1.0 - e)
    elif spec.adversarial:
        cstar = _adversarial_bracket(loss, spec, lower_only=True)
    else:
        cstar = _min_risk(loss, spec)
    lines = _pure_lines(loss, spec)
    comps = dist.continuous()
    pure = [lines is not None and all(o.label == c.label for o in _meeting(dist, c)) for c in comps]
    value, err = _expectation(dist, lambda x, e: cstar(np.abs(x), e), (), [c for c, p in zip(comps, pure) if not p])
    for c, p in zip(comps, pure):
        if p and lines and c.weight:
            value += c.weight * _closed_form_mean(loss, c.law, lines)
    return value, err


# ---------------------------------------------------------------------------
# bound assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One assembled bound.  slack and holds read R(h) - E[C*] of both
    losses alone; lhs, rhs and m_target split the target's at its R*_H and
    are report-only, as is ``surrogate_split``'s split of the surrogate's."""

    lhs: float
    rhs: float
    r_surrogate: float
    e_cstar_surrogate: float
    m_target: float
    transform_label: str
    mc_stderr_lhs: float
    mc_stderr_rhs: float
    holds: bool
    slack: float
    saturated: bool = False
    relaxed_inverse: bool = False
    provenance: tuple = ()

    def to_json_dict(self, split) -> dict:
        """JSON form; split is (surrogate_excess, M_surrogate, tol) from
        ``surrogate_split``, or the reason it could not run, which writes the
        three as null and the reason as provenance's ``surrogate_split``."""
        provenance = dict(self.provenance)
        if isinstance(split, str):
            provenance["surrogate_split"], split = split, (None, None, None)
        surrogate_excess, m_surrogate, tol = split
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "components": {
                "surrogate_excess": surrogate_excess,
                "M_surrogate": m_surrogate,
                "M_target": self.m_target,
                "transform": self.transform_label,
            },
            "mc_stderr_lhs": self.mc_stderr_lhs,
            "mc_stderr_rhs": self.mc_stderr_rhs,
            "holds": self.holds,
            "slack": self.slack,
            "saturated": self.saturated,
            "relaxed_inverse": self.relaxed_inverse,
            "provenance": {**provenance, "surrogate_best_in_class_tol": tol},
        }


def _massart_masses(dist: LabeledDistribution, beta: float) -> tuple:
    """(violating mass, unsettled mass, a violating location or None) of the
    Massart condition |eta - 1/2| >= beta.  It fails exactly where
    (1/2 + beta)*p- - (1/2 - beta)*p+ and (1/2 + beta)*p+ - (1/2 - beta)*p-
    are both > 0, p+- the masses, or weighted densities, of each label: at
    atom locations on their masses, elsewhere on the cells where
    ``_positive_cells`` finds both density sums > 0, measured by the cdf."""
    up, down = 0.5 + beta, 0.5 - beta
    atoms = [(x, p + n) for x, (p, n) in dist._atom_mass.items() if up * n - down * p > 0.0 and up * p - down * n > 0.0]
    comps = dist.continuous()
    lo, hi, pos = _positive_cells([[((up if c.label == y else -down) * c.weight, c.law, 0.0) for c in comps]
                                   for y in (-1, 1)], -1.0, 1.0)

    def mass(cells):
        return math.fsum(float(np.sum(c.weight * (c.law.cdf(hi[cells]) - c.law.cdf(lo[cells])))) for c in comps)

    cells = np.flatnonzero(pos == 1.0)
    where = atoms[0][0] if atoms else float(0.5 * (lo[cells[0]] + hi[cells[0]])) if cells.size else None
    return math.fsum(m for _, m in atoms) + mass(cells), mass(np.isnan(pos)), where


def _holds(lhs: float, rhs: float, se_lhs: float, se_rhs: float) -> bool:
    """The verdict on lhs <= rhs, for assembled bounds and the sweeps alike:
    it fails only when lhs exceeds rhs by more than three combined standard
    errors (0 for exact risks) plus 1e-9 of rounding."""
    return bool(lhs <= rhs + 3.0 * (se_lhs + se_rhs) + 1e-9)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite ({value}); the bound needs finite risks")


def _split(loss, r_h: float, e_cstar: float, spec: HypothesisSpec, dist: LabeledDistribution) -> tuple:
    """(excess, M, tol) = (R(h) - R*_H, R*_H - E[C*], tol) of the loss: R*_H is
    E[C*] itself for the unrestricted class (tol 0), else the value of
    ``best_in_class_risk``, which raises ``ValueError`` where it cannot run."""
    if spec.cls is HypothesisClass.ALL:
        return r_h - e_cstar, 0.0, 0.0
    star = best_in_class_risk(loss, spec, dist)
    return r_h - star.value, star.value - e_cstar, star.tol


def assemble_bound(
    target: Target,
    surrogate: MarginLoss,
    spec: HypothesisSpec,
    dist: LabeledDistribution,
    h: LinearHypothesis,
    massart: float = None,
    mode=Exact(),
) -> BoundReport:
    """Instantiate one complete estimation-error bound and check it.

    Both best-in-class risks cancel, so the verdict reads no R*_H: slack =
    Gamma(y) - (R_target(h) - E[C*_target]) and ``holds`` is ``_holds`` on
    those two sides, with Gamma from ``select_transform`` and y =
    R_surrogate(h) - E[C*_surrogate].  lhs, rhs = Gamma(y) - M_target and
    best_in_class_tol, the target's ``_split``, are report-only.  The ReLU
    class raises ``ValueError`` before any risk is computed.  Gamma's domain
    is the forward transform's range, [0, T(1)] (R+ on the standard route);
    a y beyond it saturates: Gamma = 1, the largest target regret, and the
    report says ``saturated``.  A non-finite R_surrogate(h), E[C*] or y
    raises ``ValueError``.  In Monte Carlo mode both risks come from one
    shared sample, reduced block by block (``_mc_risks``), with delta-method
    standard errors, rhs's through Gamma's largest one-sided derivative at y.
    A Massart beta that the distribution breaks on positive mass
    (``_massart_masses``) raises ``ValueError`` before any risk is computed.
    """
    if spec.cls is HypothesisClass.ONE_HIDDEN_RELU:
        raise ValueError("bound reports refuse the ReLU class: it has no zero-one best-in-class route, "
                         "and no rule for whether a linear h lies in it")
    adversarial = target is Target.ADVERSARIAL_ZERO_ONE
    if adversarial and not spec.adversarial:
        raise ValueError("adversarial target requires spec.gamma > 0")
    if not adversarial and spec.adversarial:
        raise ValueError("non-adversarial target requires spec.gamma = 0")
    if spec.cls is HypothesisClass.LINEAR:
        h.validate(spec)  # a bound about H says nothing about an h outside it
    _, inverse = select_transform(surrogate, spec, massart)
    if massart is not None:
        violating, unsettled, where = _massart_masses(dist, massart)
        if violating > 0.0:
            raise ValueError(f"the distribution breaks the Massart noise condition |eta - 1/2| >= {massart:g} on mass "
                             f"{violating:.6g} (at x = {where!r}, for one); the bound assumes it almost surely")

    if isinstance(mode, MonteCarlo):
        (r_target, se_target), (r_surr, se_surr) = _mc_risks((ZERO_ONE, surrogate), h, dist, mode, spec.gamma)
        r_surr_err = 0.0
    else:
        r_target, se_target = risk(ZERO_ONE, h, dist, Exact(), spec.gamma)
        r_surr, se_surr, r_surr_err = risk(surrogate, h, dist, Exact(), spec.gamma, with_error=True)
    _require_finite("surrogate risk R_surrogate(h)", r_surr)
    e_cstar_surr, e_surr_err = _expect_min_conditional(surrogate, spec, dist)
    _require_finite("expected minimal conditional surrogate risk E[C*]", e_cstar_surr)
    y = r_surr - e_cstar_surr  # = surrogate excess + surrogate gap, grid-noise free
    _require_finite("Gamma's argument R_surrogate(h) - E[C*]", y)
    e_cstar_target, e_target_err = _expect_min_conditional(ZERO_ONE, spec, dist)
    lhs, m_target, target_tol = _split(ZERO_ONE, r_target, e_cstar_target, spec, dist)

    y = max(y, 0.0)
    saturated = y > inverse.domain_end
    if saturated:
        gamma_val, deriv = 1.0, 0.0
    else:
        with np.errstate(over="ignore"):  # an inverse slope of up to 1/B may overflow Gamma(y) to inf
            gamma_val, deriv = float(inverse(y)), inverse.derivative_upper(y)
    se_rhs = deriv * se_surr if se_surr else 0.0
    target_side = r_target - e_cstar_target  # = lhs + M_target, R*_H cancelled
    prov = (
        ("mode", "mc" if isinstance(mode, MonteCarlo) else "exact"),
        ("n", getattr(mode, "n", 0)),
        ("seed", getattr(mode, "seed", 0)),
        ("best_in_class_tol", target_tol),
        ("massart_beta", massart if massart is not None else ""),
        ("target", target.value),
        ("quad_err", r_surr_err + e_target_err + e_surr_err),
    )
    if massart is not None:
        prov += (("massart_unsettled_mass", unsettled),)
    return BoundReport(
        lhs=lhs,
        rhs=gamma_val - m_target,
        r_surrogate=r_surr,
        e_cstar_surrogate=e_cstar_surr,
        m_target=m_target,
        transform_label=inverse.loss_label,
        mc_stderr_lhs=se_target,
        mc_stderr_rhs=se_rhs,
        holds=_holds(target_side, gamma_val, se_target, se_rhs),
        slack=gamma_val - target_side,
        saturated=saturated,
        relaxed_inverse=inverse.relaxed,
        provenance=prov,
    )


def surrogate_split(
    report: BoundReport, surrogate: MarginLoss, spec: HypothesisSpec, dist: LabeledDistribution
) -> tuple:
    """(surrogate_excess, M_surrogate, tol) of a report from
    ``assemble_bound`` with the same surrogate, spec and dist: ``_split`` of
    its R_surrogate(h) and E[C*_surrogate]."""
    return _split(surrogate, report.r_surrogate, report.e_cstar_surrogate, spec, dist)


# ---------------------------------------------------------------------------
# discrete verification of the convex-Psi bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiBoundCheck:
    holds: bool
    precondition_ok: bool
    violations: tuple  # (location_index, hypothesis_index, gap)
    max_bound_slack: float


def verify_psi_bound_discrete(
    dist: LabeledDistribution,
    surrogate: MarginLoss,
    spec: HypothesisSpec,
    psi: PiecewiseTransform,
    hypotheses,
) -> PsiBoundCheck:
    """Exact check of the convex-Psi estimation-error bound on an atom-only
    distribution (``LabeledDistribution.from_atoms``); a continuous
    component raises ``ValueError``, as does an h outside a linear class or
    a score outside a bounded class's attainable range.

    The pointwise precondition Psi(target regret) <= surrogate regret is
    checked at every (location, hypothesis) pair in one array evaluation of
    the closed forms, at the distinct atom locations in order of first
    appearance, each with the distribution's eta there; ``violations`` holds
    (location index, hypothesis index, gap) where it fails by more than
    1e-10.  The assembled inequality Psi(R_01(h) - E[C*_01]) <=
    R_s(h) - E[C*_s] + Psi(0) is checked per hypothesis from ``risk`` and
    the expected minimal conditional risks, as ``assemble_bound`` computes
    them; ``holds`` fails when it is violated by more than 1e-10.
    """
    if dist.continuous():
        raise ValueError("the discrete verifier needs an atom-only distribution")
    hypotheses = tuple(hypotheses)
    if spec.cls is HypothesisClass.LINEAR:
        for h in hypotheses:
            h.validate(spec)  # a bound about H says nothing about an h outside it
    xs = np.array(list(dict.fromkeys(c.law.x for c in dist.atoms())))
    eta = dist.eta(xs)
    w = np.array([h.w for h in hypotheses])[:, None]
    u = w * xs + np.array([h.b for h in hypotheses])[:, None]  # h.score at every location
    if spec.cls is not HypothesisClass.ALL and np.any(np.abs(u) > spec.score_bound(np.abs(xs))):
        raise ValueError("a hypothesis scores outside the class's attainable range")
    target_regret = np.where(u < 0, eta, 1.0 - eta) - np.minimum(eta, 1.0 - eta)  # sign(0) = +1
    surrogate_regret = _interval_risk(surrogate, eta, u, u) - _min_risk(surrogate, spec)(np.abs(xs), eta)
    gap = psi(target_regret) - surrogate_regret
    violations = tuple((int(ai), int(hj), float(gap[hj, ai])) for hj, ai in np.argwhere(gap > _PSI_TOL))

    e_target = _expect_min_conditional(ZERO_ONE, spec, dist)[0]
    e_surr = _expect_min_conditional(surrogate, spec, dist)[0]
    psi0 = float(psi(0.0))
    slack = np.array(
        [psi(risk(ZERO_ONE, h, dist)[0] - e_target) - (risk(surrogate, h, dist)[0] - e_surr + psi0) for h in hypotheses]
    )
    return PsiBoundCheck(
        holds=bool(np.all(slack <= _PSI_TOL)),
        precondition_ok=not violations,
        violations=violations,
        max_bound_slack=float(slack.max(initial=-math.inf)),
    )


# ---------------------------------------------------------------------------
# constructive no-guarantee demonstration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NegativeResultDemo:
    surrogate_estimation_error: float
    target_estimation_error: float
    r_surrogate_h0: float
    r_surrogate_star: float
    r_target_h0: float
    r_target_star: float
    oracle_surrogate_star: float


def negative_result_demo(surrogate: MarginLoss, spec: HypothesisSpec) -> NegativeResultDemo:
    """Singleton construction showing worst-case convex/sigmoid surrogates give
    nothing: at eta = 1/2 the zero hypothesis has surrogate estimation error 0
    but target (robust) estimation error exactly 1/2."""
    if not spec.adversarial:
        raise ValueError("the construction is adversarial; spec needs gamma > 0")
    if spec.cls not in (HypothesisClass.LINEAR, HypothesisClass.ONE_HIDDEN_RELU):
        raise ValueError("demonstration requires a linear or ReLU class")
    if not spec.margin_scale() > 0:
        raise ValueError("class must contain strictly positive worst-case scores (B > 0)")
    if surrogate.family is LossFamily.RHO_MARGIN:
        raise ValueError("the rho-margin family admits a nontrivial guarantee; no demo")
    phi0 = float(eval_margin_loss(surrogate, 0.0))
    # h0 = 0 at the distinguishing point: both worst-case scores are 0.
    r_surr_h0 = 0.5 * phi0 + 0.5 * phi0
    r_surr_star = phi0  # attained by h0; no h does better at eta = 1/2
    r_target_h0 = 1.0  # both label-wise robust indicators fire
    r_target_star = 0.5  # sign-definite hypotheses exist (b = B > 0)
    point = ConditionalPoint(0.0, 0.5)
    if spec.cls is HypothesisClass.LINEAR:
        oracle = brute_force_inf(surrogate, spec, point, grid_n=2001)
    else:
        oracle = math.nan
    return NegativeResultDemo(
        surrogate_estimation_error=r_surr_h0 - r_surr_star,
        target_estimation_error=r_target_h0 - r_target_star,
        r_surrogate_h0=r_surr_h0,
        r_surrogate_star=r_surr_star,
        r_target_h0=r_target_h0,
        r_target_star=r_target_star,
        oracle_surrogate_star=oracle,
    )
