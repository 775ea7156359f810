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
transform, saturating at 1 past its domain.  The surrogate's best-in-class
risk cancels in Gamma's argument, surrogate_excess + M_surrogate =
R_surrogate(h) - E[C*_surrogate], so the verdict never searches for it; the
split into surrogate_excess and M_surrogate is computed on request
(``surrogate_split``), as the CLI does for its JSON.  The module also carries
the discrete verifier for the general convex-Psi bound on atom-only
distributions, whose assembled inequality uses the same ``risk`` and E[C*] as
the bound reports and whose pointwise condition uses the array closed forms,
and the constructive no-guarantee demonstration for worst-case convex/sigmoid
surrogates.

Risks are standard at gamma = 0 (sign(0) = +1) and robust, the loss's
supremum over the gamma-ball, at gamma > 0: ``risk``'s gamma, or the spec's
for ``best_in_class_risk``, alone selects the setting.  Exact zero-one risks
are closed-form tail masses.  Exact margin-loss risks (``_margin_risk``,
which also bounds the search's cells) and the expectations E[C*] integrate
the truncated normals through ``distributions._integrate_continuous``, which
owns the quadrature and its tolerances; a report's ``provenance`` key
``quad_err`` sums the error estimates of every integration it ran.  scipy is
used only for the normal cdf and its inverse.
"""

from __future__ import annotations

import enum
import heapq
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from ._runtime import thread_map
from .conditional import ConditionalPoint, _adversarial_bracket, _interval_risk, _min_risk, brute_force_inf
from .distributions import LabeledDistribution, QuadratureError, _integrate_continuous, _map_sample_blocks, expectation
from .distributions import _expectation, _meeting
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
_SLOPE_NODES = np.linspace(-8.0, 8.0, 33)  # bracketing nodes, in standard deviations from the mean
_BISECTIONS = 40
_PSI_TOL = 1e-10  # rounding allowance of the discrete verifier's checks


@dataclass(frozen=True)
class Exact:
    pass


@dataclass(frozen=True)
class MonteCarlo:
    n: int
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"Monte Carlo sample size must be an integer, got {self.n!r}")
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
    at once; the totals do not depend on how many."""
    leaves = []
    _pairwise_sum(0, n, lambda start, stop: leaves.append((start, stop)) or 0.0)
    by_start = dict(zip((start for start, _ in leaves), thread_map(lambda leaf: leaf_sums(*leaf), leaves)))
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
    them by rounding only.
    """

    def block_stats(start, xs, ys, spare):
        err, arg = _score_kernel(h.w, h.b, xs, ys, gamma, out=xs)
        return [(xs.size, *_mean_m2(_loss_values(loss, err, arg, spare[0]))) for loss in losses]

    out = []
    for by_block in zip(*_map_sample_blocks(dist, mode.n, mode.seed, block_stats)):  # one loss's blocks
        n, mean, m2 = by_block[0]
        for nb, mean_b, m2_b in by_block[1:]:
            delta, n_a, n = mean_b - mean, n, n + nb
            mean += delta * nb / n
            m2 += m2_b + delta * delta * n_a * nb / n
        out.append((mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)))
    return out


def _kink_margins(loss) -> tuple:
    fam = loss.family
    if fam in (LossFamily.HINGE, LossFamily.QUADRATIC):
        return (1.0,)
    if fam is LossFamily.RHO_MARGIN:
        return (0.0, loss.rho)
    return ()


def _discontinuity_points(loss, h, gamma):
    """x locations where the pointwise loss of h has a kink or jump."""
    w = h.w
    if w == 0.0:
        return ()
    shifts = (gamma * abs(w), -gamma * abs(w)) if gamma > 0 else (0.0,)
    pts = []
    for v in _kink_margins(loss):
        for vv in (v, -v):
            for sh in shifts:
                pts.append((vv + sh - h.b) / w)
    return tuple(sorted(set(pts)))


def _margin_risk(loss, dist, hs, gamma) -> tuple:
    """(risk, error estimate) of the margin loss taken at each point's
    largest margin over the linear hypotheses hs: the atoms summed, then the
    truncated normals integrated by ``distributions._integrate_continuous``,
    its panels split where a loss of hs has a kink or jump.  For hs = (h,)
    it is the exact risk of h."""

    def losses(xs, label):
        margins = _score_kernel(hs[0].w, hs[0].b, xs, label, gamma)[1]
        for h in hs[1:]:
            margins = np.maximum(margins, _score_kernel(h.w, h.b, xs, label, gamma)[1])
        return eval_margin_loss(loss, margins)

    atoms = sum(c.weight * float(losses(c.law.x, c.label)) for c in dist.atoms())
    pts = [p for h in hs for p in _discontinuity_points(loss, h, gamma)]
    return _integrate_continuous(
        dist.continuous(), lambda c: lambda xs: losses(xs, c.label) * c.law.pdf(xs), pts, atoms
    )


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
    margin-loss quadrature ran).
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
    quad_err: float = 0.0  # error estimate of the quadrature behind value


def _error_mass(law, label, w, b, gamma):
    """Exact zero-one error mass of the scores w*x + b (w, b broadcast) on one
    truncated normal with the given label.

    The kernel's margin at x is margin0 + label*w*x.  For w != 0 the errors
    fill the half-line beyond the x where it crosses 0; that threshold is a
    null set, so its strictness does not matter.  For w = 0 the score is the
    constant b, and the kernel's indicator decides, strictness included.
    """
    err0, margin0 = _score_kernel(w, b, 0.0, label, gamma)
    thr = -margin0 / np.where(w == 0.0, np.nan, label * w)
    cdf = law.cdf(np.nan_to_num(thr, nan=0.0))
    sided = np.where((w > 0) == (label > 0), cdf, 1.0 - cdf)
    return np.where(w == 0.0, err0, sided)


def _zero_one_risk(dist, w, b, gamma):
    """Exact zero-one (robust for gamma > 0) risk of the scores w*x + b, w
    and b broadcast: the atoms' kernel indicators, then each truncated
    normal's closed-form error mass, added in component order."""
    out = 0.0
    for c in dist.atoms():
        out = out + c.weight * _score_kernel(w, b, c.law.x, c.label, gamma)[0]
    for c in dist.continuous():
        out = out + c.weight * _error_mass(c.law, c.label, w, b, gamma)
    return out


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

    Candidates, in both orientations: every breakpoint, and the thresholds
    16 ulps of the kernel's operands (|breakpoint| + gamma) to either side of
    it, where the kernel's float arithmetic puts an atom at the breakpoint on
    each side; the derivative's sign changes, bracketed on nodes spread over
    each component's support and +-8 standard deviations of its mean, then
    bisected; and the constants.  Each candidate is scored as the (w, b) of
    the class that realizes it by ``_zero_one_risk``, the exact risk that
    ``risk`` computes, so value is the risk of the returned (w, b).  It
    differs from the infimum by rounding only, unless two breakpoints lie
    within a side step of each other: no float (w, b) may realize a
    threshold between them, and a side candidate may jump past one.  tol is
    then the weight of the atoms with a breakpoint in such a cluster, which
    bounds the miss: the candidate a side step beyond the cluster sits on the
    same side of every other breakpoint as any threshold within it, so off
    those atoms the errors agree, and the tail masses move by rounding only.
    """
    gamma, W, B = spec.gamma, spec.W, spec.B
    shifts = (-gamma, gamma) if gamma > 0 else (0.0,)
    comps = dist.continuous()
    ends = [e for c in comps for e in (c.law.lo, c.law.hi)]
    points = np.unique(np.add.outer([c.law.x for c in dist.atoms()] + ends, shifts))
    step = _SIDE_ULPS * _EPMACH * (np.abs(points) + gamma) + _UFLOW
    close = np.diff(points) <= np.maximum(step[:-1], step[1:])
    clustered = points[np.append(close, False) | np.insert(close, 0, False)]
    tol = math.fsum(c.weight for c in dist.atoms() if np.isin(np.add(c.law.x, shifts), clustered).any())

    def slope(theta, s):  # d risk / d theta in orientation s, at the array theta
        out = np.zeros(theta.shape)
        for c in comps:
            ys = c.label * s
            out = out + ys * c.weight * c.law.pdf(theta + gamma * ys)
        return out

    nodes = [points]
    for c in comps:
        law = c.law
        spread = np.clip(law.mean + law.std * _SLOPE_NODES, law.lo, law.hi)
        xs = np.concatenate((spread, np.linspace(law.lo, law.hi, 17)))
        nodes.append(np.add.outer(xs, shifts).ravel())
    nodes = np.unique(np.concatenate(nodes))
    # midpoints too: across a gap between supports the slope is 0, not a turn
    nodes = np.sort(np.concatenate((nodes, 0.5 * (nodes[:-1] + nodes[1:]))))
    lo, hi, orient = [], [], []
    for s in (1.0, -1.0):
        d = slope(nodes, s)
        turn = np.flatnonzero((d[:-1] < 0.0) & (d[1:] >= 0.0))
        hi.append(nodes[turn + 1])
        lo.append(np.where(d[turn + 1] == 0.0, hi[-1], nodes[turn]))  # a turn on a node needs no bisection
        orient.append(np.full(turn.size, s))
    lo, hi, orient = map(np.concatenate, (lo, hi, orient))
    if np.any(lo < hi):
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            up = slope(mid, orient) > 0.0
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)

    both = np.concatenate((points - step, points, points + step))
    theta = np.concatenate((both, both, 0.5 * (lo + hi)))
    sign = np.concatenate((np.ones(both.size), -np.ones(both.size), orient))
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
    (half widths hw, hb; |x| <= 1; none finite if k^2 overflows).  Else
    (rho-margin, or no finite convex bound) ``_margin_risk`` at the corners'
    largest margin: on a half box the margin is linear in (w, b), and every
    loss is non-increasing.
    """
    centre, centre_err = score(0.5 * (wl + wh), 0.5 * (bl + bh))
    bound = 2.0 * (centre - centre_err) - max(sum(score(w, b)) for w in (wl, wh) for b in (bl, bh))
    if loss.family is LossFamily.SIGMOID:
        bound -= 4.0 * (loss.k * loss.k) / math.sqrt(27.0) * ((1.0 + gamma) * 0.5 * (wh - wl) + 0.5 * (bh - bl)) ** 2
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
    finite bound), resting, like quad_err, on the quadrature's error estimates.
    """
    if spec.cls is HypothesisClass.ALL:
        if spec.adversarial:
            raise ValueError("no exact machinery for the unrestricted class under perturbations")
        val, err = _expect_min_conditional(loss, spec, dist)
        return BestInClass(val, tol=0.0, quad_err=err)
    if spec.cls is not HypothesisClass.LINEAR:
        raise ValueError("best-in-class search supports the linear and unrestricted classes")
    if isinstance(loss, ZeroOneLoss):
        return _zero_one_best_linear(spec, dist)
    if not (math.isfinite(spec.W) and math.isfinite(spec.B)):
        raise ValueError("the margin-loss search needs finite W and B")
    gamma = spec.gamma
    scores, best, cells = {}, [math.inf, math.nan, math.nan, 0.0], []  # best: value, w, b, error estimate

    def score(w, b):
        if (w, b) not in scores:
            try:
                value, _, err = risk(loss, LinearHypothesis((w,), b), dist, Exact(), gamma, True)
            except QuadratureError:
                value = err = math.inf
            scores[w, b] = value, err
            if value < best[0]:
                best[:] = value, w, b, err
        return scores[w, b]

    def push(cell):
        heapq.heappush(cells, (_cell_bound(loss, dist, gamma, score, *cell), cell))

    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing loss scores inf
        push((-spec.W, 0.0, -spec.B, spec.B))
        push((0.0, spec.W, -spec.B, spec.B))
        while best[0] - cells[0][0] > _BIC_GAP and len(scores) < _BIC_BUDGET:
            wl, wh, bl, bh = cells[0][1]
            wm, bm = 0.5 * (wl + wh), 0.5 * (bl + bh)
            split_w = (1.0 + gamma) * (wh - wl) >= bh - bl
            if not (wl < wm < wh if split_w else bl < bm < bh):
                break
            heapq.heappop(cells)
            push((wl, wm, bl, bh) if split_w else (wl, wh, bl, bm))
            push((wm, wh, bl, bh) if split_w else (wl, wh, bm, bh))
    value, w, b, err = best
    return BestInClass(value, tol=max(0.0, value - cells[0][0]), w=w, b=b, quad_err=err)


def _expect_min_conditional(loss, spec, dist) -> tuple:
    """(E_X of the pointwise minimal conditional risk, quadrature error
    estimate), robust for spec.gamma > 0; the lower endpoint when only a
    bracket is available, which upper-bounds the resulting gap."""
    if isinstance(loss, ZeroOneLoss):
        # on a component whose support meets no continuous component of the
        # other label, eta is 0 or 1 wherever it has density and no atom sits, so
        # min(eta, 1 - eta) * pdf integrates to exactly 0 there
        mixed = [c for c in dist.continuous() if any(o.label != c.label for o in _meeting(dist, c))]
        return _expectation(dist, lambda x, e: np.minimum(e, 1.0 - e), (), mixed)
    if spec.adversarial:
        bracket = _adversarial_bracket(loss, spec)
        return expectation(dist, lambda x, e: bracket(np.abs(x), e)[0], with_error=True)
    min_risk = _min_risk(loss, spec)
    return expectation(dist, lambda x, e: min_risk(np.abs(x), e), with_error=True)


# ---------------------------------------------------------------------------
# bound assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One assembled bound.  The verdict needs the surrogate only through
    r_surrogate - e_cstar_surrogate, which ``surrogate_split`` splits."""

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

    def to_json_dict(self, split: tuple) -> dict:
        """JSON form; split is (surrogate_excess, M_surrogate, tol) from ``surrogate_split``."""
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
            "provenance": {**dict(self.provenance), "surrogate_best_in_class_tol": tol},
        }


def _check_massart_on_dist(dist: LabeledDistribution, beta: float) -> int:
    """Grid check of |eta - 1/2| >= beta off zero-density sets, and at every
    location of an atom with mass; warns on violation and returns the number
    of distinct violating locations."""
    grid = np.linspace(-1.0, 1.0, 10001)
    dens = np.zeros_like(grid)
    for c in dist.continuous():
        dens += c.weight * c.law.pdf(grid)
    locs = np.array(list(dict.fromkeys(c.law.x for c in dist.atoms() if c.weight > 0.0)), dtype=float)
    xs = np.concatenate((grid, locs))
    checked = np.concatenate((dens > 1e-12, np.ones(locs.size, dtype=bool)))
    bad = np.unique(xs[checked & (np.abs(dist.eta(xs) - 0.5) < beta - 1e-12)]).size
    if bad:
        warnings.warn(
            f"distribution violates the beta={beta:g} noise condition at {bad} grid points and atom locations",
            stacklevel=3,
        )
    return bad


def _holds(lhs: float, rhs: float, se_lhs: float, se_rhs: float) -> bool:
    """The verdict on lhs <= rhs, for assembled bounds and the sweeps alike:
    it fails only when lhs exceeds rhs by more than three combined standard
    errors (0 for exact risks) plus 1e-9 of rounding."""
    return bool(lhs <= rhs + 3.0 * (se_lhs + se_rhs) + 1e-9)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite ({value}); the bound needs finite risks")


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

    lhs is the target estimation error of h; rhs is Gamma(y) - M_target,
    with Gamma from ``select_transform`` and y = surrogate excess + surrogate
    gap = R_surrogate(h) - E[C*_surrogate]: the surrogate's best-in-class
    risk cancels, so only the zero-one target is searched.  The split of y
    into surrogate excess and gap is not part of the verdict;
    ``surrogate_split`` computes it on request.  Gamma's domain is the
    forward transform's range, [0, T(1)] (R+ on the standard route); a y
    beyond it saturates: Gamma = 1, the largest target regret, and the
    report says ``saturated``.  A non-finite R_surrogate(h), E[C*] or y
    raises ``ValueError``.  In Monte Carlo mode both risks are estimated
    from one shared sample, reduced block by block (``_mc_risks``), and
    carry delta-method standard errors, rhs's through Gamma's largest
    one-sided derivative at y.  ``holds`` follows ``_holds``.
    """
    adversarial = target is Target.ADVERSARIAL_ZERO_ONE
    if adversarial and not spec.adversarial:
        raise ValueError("adversarial target requires spec.gamma > 0")
    if not adversarial and spec.adversarial:
        raise ValueError("non-adversarial target requires spec.gamma = 0")
    if spec.cls is HypothesisClass.LINEAR:
        h.validate(spec)  # a bound about H says nothing about an h outside it
    _, inverse = select_transform(surrogate, spec, massart)
    if massart is not None:
        massart_violations = _check_massart_on_dist(dist, massart)
    gamma = spec.gamma

    if isinstance(mode, MonteCarlo):
        (r_target, se_target), (r_surr, se_surr) = _mc_risks((ZERO_ONE, surrogate), h, dist, mode, gamma)
        r_surr_err = 0.0
    else:
        r_target, se_target = risk(ZERO_ONE, h, dist, Exact(), gamma)
        r_surr, se_surr, r_surr_err = risk(surrogate, h, dist, Exact(), gamma, with_error=True)
    _require_finite("surrogate risk R_surrogate(h)", r_surr)
    e_cstar_surr, e_surr_err = _expect_min_conditional(surrogate, spec, dist)
    _require_finite("expected minimal conditional surrogate risk E[C*]", e_cstar_surr)
    y = r_surr - e_cstar_surr  # = surrogate excess + surrogate gap, grid-noise free
    _require_finite("Gamma's argument R_surrogate(h) - E[C*]", y)

    star_target = best_in_class_risk(ZERO_ONE, spec, dist)
    if spec.cls is HypothesisClass.ALL:  # R*_01,H is E[C*_01]: one integral serves both
        e_cstar_target, e_target_err = star_target.value, 0.0
    else:
        e_cstar_target, e_target_err = _expect_min_conditional(ZERO_ONE, spec, dist)
    m_target = star_target.value - e_cstar_target
    lhs = r_target - star_target.value

    y = max(y, 0.0)
    saturated = y > inverse.domain_end
    if saturated:
        gamma_val, deriv = 1.0, 0.0
    else:
        gamma_val, deriv = float(inverse(y)), inverse.derivative_upper(y)
    rhs = gamma_val - m_target
    se_rhs = deriv * se_surr if se_surr else 0.0
    slack = rhs - lhs
    prov = (
        ("mode", "mc" if isinstance(mode, MonteCarlo) else "exact"),
        ("n", getattr(mode, "n", 0)),
        ("seed", getattr(mode, "seed", 0)),
        ("best_in_class_tol", star_target.tol),
        ("massart_beta", massart if massart is not None else ""),
        ("target", target.value),
        ("quad_err", r_surr_err + star_target.quad_err + e_target_err + e_surr_err),
    )
    if massart is not None:
        prov += (("massart_violations", massart_violations),)
    return BoundReport(
        lhs=lhs,
        rhs=rhs,
        r_surrogate=r_surr,
        e_cstar_surrogate=e_cstar_surr,
        m_target=m_target,
        transform_label=inverse.loss_label,
        mc_stderr_lhs=se_target,
        mc_stderr_rhs=se_rhs,
        holds=_holds(lhs, rhs, se_target, se_rhs),
        slack=slack,
        saturated=saturated,
        relaxed_inverse=inverse.relaxed,
        provenance=prov,
    )


def surrogate_split(
    report: BoundReport, surrogate: MarginLoss, spec: HypothesisSpec, dist: LabeledDistribution
) -> tuple:
    """(surrogate_excess, M_surrogate, tol) of a report from
    ``assemble_bound`` with the same surrogate, spec and dist: R(h) - R*_H and
    R*_H - E[C*], R*_H being the best-in-class search's value, which exceeds
    the infimum by at most its tol.

    For a linear class this runs the best-in-class search on the surrogate;
    the unrestricted class has R*_H = E[C*] and needs no search (tol 0).
    """
    r_surr, e_cstar = report.r_surrogate, report.e_cstar_surrogate
    if spec.cls is HypothesisClass.ALL:
        return r_surr - e_cstar, 0.0, 0.0
    star = best_in_class_risk(surrogate, spec, dist)
    return r_surr - star.value, star.value - e_cstar, star.tol


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
