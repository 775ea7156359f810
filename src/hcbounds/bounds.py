"""Assembled estimation-error bounds and their verification primitives.

Pieces: generalization risks of a concrete linear hypothesis (exact, or
Monte Carlo with standard errors), best-in-class risks at d=1 by
coarse-to-fine (w, b) grid refinement, minimizability gaps (best-in-class
risk minus the expected pointwise minimal conditional risk), and complete
bound reports of the form

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

Exact zero-one risks are closed-form tail masses.  Exact margin-loss risks
and the expectations E[C*] integrate each truncated normal with
``distributions._gauss_kronrod``, QUADPACK's adaptive 21-point Gauss-Kronrod
rule (absolute and relative tolerance 1e-10; an error estimate above 1e-8
raises ``QuadratureError``); a report's ``provenance`` key ``quad_err`` sums
the error estimates of every integration it ran.  scipy is used only for the
normal cdf and its inverse.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from ._runtime import thread_map
from .conditional import ConditionalPoint, _adversarial_bracket, _interval_risk, _min_risk, brute_force_inf
from .distributions import (
    LabeledDistribution,
    _SAMPLE_BLOCK,
    QuadratureError,
    _gauss_kronrod,
    _map_sample_blocks,
    expectation,
)
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

_BIC_TOL = 1e-4
_GL_NODES = 201
_REFINE_ROUNDS = 4  # initial grid + 3 tenfold refinements
_GRID_SIDE = 41
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


def _score_kernel(w, b, xs, ys, adversarial, gamma, out=None):
    """(err, arg) for the scores s = w*x + b at points xs with labels ys in {-1, +1}.

    w and b broadcast against xs: scalars for one hypothesis on a sample, or
    a (w, b) grid against one atom or a quadrature rule.  err is the zero-one
    error indicator (bool): sign(s) != y, or in the robust case whether the
    gamma-ball reaches the wrong side.  arg is the argument at which every
    margin loss is taken: y*s, or the worst-case margin np.where(y > 0, lo, -hi)
    over the ball [lo, hi] = [s - gamma|w|, s + gamma|w|].  Given ``out``, a
    float64 array of xs's shape (xs itself included), the score and arg are
    computed in it (w and b scalars), and arg is out.
    """
    ys = np.asarray(ys)
    if out is not None:
        s = np.multiply(xs, w, out=out)
        s += b
    else:
        s = w * np.asarray(xs, dtype=float) + b
    if adversarial:
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


def _pointwise_losses(loss, h, xs, ys, adversarial, gamma):
    return _loss_values(loss, *_score_kernel(h.w, h.b, xs, ys, adversarial, gamma))


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


def _mc_risks(losses, h, dist, mode, adversarial, gamma) -> list:
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
        err, arg = _score_kernel(h.w, h.b, xs, ys, adversarial, gamma, out=xs)
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
    if isinstance(loss, ZeroOneLoss):
        return (0.0,)
    fam = loss.family
    if fam in (LossFamily.HINGE, LossFamily.QUADRATIC):
        return (1.0,)
    if fam is LossFamily.RHO_MARGIN:
        return (0.0, loss.rho)
    return ()


def _discontinuity_points(loss, h, adversarial, gamma):
    """x locations where the pointwise loss of h has a kink or jump."""
    w = h.w
    if w == 0.0:
        return ()
    shifts = (gamma * abs(w), -gamma * abs(w)) if adversarial else (0.0,)
    pts = []
    for v in _kink_margins(loss):
        for vv in (v, -v):
            for sh in shifts:
                pts.append((vv + sh - h.b) / w)
    return tuple(sorted(set(pts)))


def risk(
    loss,
    h: LinearHypothesis,
    dist: LabeledDistribution,
    mode=Exact(),
    adversarial: bool = False,
    gamma: float = 0.0,
    with_error: bool = False,
):
    """Generalization risk of h; returns (value, stderr). stderr is 0 in Exact mode.

    MonteCarlo mode reduces the sample block by block (``_mc_risks``).

    Exact mode takes the zero-one risk from closed-form tail masses and a
    margin loss's risk from ``distributions._gauss_kronrod`` (QUADPACK's
    adaptive 21-point Gauss-Kronrod rule, absolute and relative tolerance
    1e-10) over each truncated normal, split where the loss of h has a kink or
    jump; an error estimate above 1e-8 raises ``QuadratureError``.  With
    ``with_error`` returns (value, stderr, quad_err), quad_err being the
    components' error estimates weighted like their risks (0 unless the
    margin-loss quadrature ran).
    """
    if adversarial and not gamma > 0:
        raise ValueError("adversarial risk needs gamma > 0")
    quad_err = 0.0
    if isinstance(mode, MonteCarlo):
        ((value, se),) = _mc_risks((loss,), h, dist, mode, adversarial, gamma)
    elif isinstance(loss, ZeroOneLoss):
        value, se = float(_risk_grid(loss, dist, [h.w], [h.b], adversarial, gamma)[0, 0]), 0.0
    else:
        value, se = float(_atom_risk(loss, dist, h.w, h.b, adversarial, gamma)), 0.0
        pts = _discontinuity_points(loss, h, adversarial, gamma)
        for c in dist.continuous():
            law = c.law

            def f(xs, _law=law, _y=c.label):
                return _pointwise_losses(loss, h, xs, _y, adversarial, gamma) * _law.pdf(xs)

            val, err = _gauss_kronrod(f, law.lo, law.hi, pts)
            if err > 1e-8:
                raise QuadratureError(f"risk quadrature error {err:.2e} on [{law.lo}, {law.hi}]")
            value += c.weight * val
            quad_err += c.weight * err
    return (value, se, quad_err) if with_error else (value, se)


# ---------------------------------------------------------------------------
# best-in-class risk by grid refinement (d=1, linear class)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BestInClass:
    value: float
    exact: bool
    tol: float
    w: float = math.nan
    b: float = math.nan
    quad_err: float = 0.0  # error estimate of the quadrature behind value


@functools.lru_cache(maxsize=1)
def _gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    nodes.setflags(write=False)  # shared by every caller
    weights.setflags(write=False)
    return nodes, weights


def _atom_risk(loss, dist, w, b, adversarial, gamma):
    """Risk mass on the atoms of dist of the scores w*x + b (w, b broadcast)."""
    out = 0.0
    for c in dist.atoms():
        err, arg = _score_kernel(w, b, c.law.x, c.label, adversarial, gamma)
        out = out + c.weight * _loss_values(loss, err, arg)
    return out


def _error_mass(law, label, w, b, adversarial, gamma):
    """Exact zero-one error mass of the scores w*x + b (w, b broadcast) on one
    truncated normal with the given label.

    The kernel's margin at x is margin0 + label*w*x.  For w != 0 the errors
    fill the half-line beyond the x where it crosses 0; that threshold is a
    null set, so its strictness does not matter.  For w = 0 the score is the
    constant b, and the kernel's indicator decides, strictness included.
    """
    err0, margin0 = _score_kernel(w, b, 0.0, label, adversarial, gamma)
    thr = -margin0 / np.where(w == 0.0, np.nan, label * w)
    cdf = law.cdf(np.nan_to_num(thr, nan=0.0))
    sided = np.where((w > 0) == (label > 0), cdf, 1.0 - cdf)
    return np.where(w == 0.0, err0, sided)


def _risk_grid(loss, dist, w_vals, b_vals, adversarial, gamma):
    """Risk of every (w, b) pair: exact tail masses for zero-one, fixed
    Gauss-Legendre panels for margin losses (search accuracy only).  A loss
    that overflows makes its cell's risk inf, silently; a node whose density
    underflowed to 0 adds 0 there, never inf * 0."""
    w = np.asarray(w_vals, dtype=float)[:, None]
    b = np.asarray(b_vals, dtype=float)[None, :]
    out = np.zeros((w.shape[0], b.shape[1]))
    with np.errstate(over="ignore"):
        out += _atom_risk(loss, dist, w, b, adversarial, gamma)
        if isinstance(loss, ZeroOneLoss):
            for c in dist.continuous():
                out += c.weight * _error_mass(c.law, c.label, w, b, adversarial, gamma)
            return out
        nodes, weights = _gauss_legendre()
        for c in dist.continuous():
            law = c.law
            half = 0.5 * (law.hi - law.lo)
            xg = law.lo + half * (nodes + 1.0)
            wg = weights * half * law.pdf(xg) * c.weight
            _, arg = _score_kernel(w[:, :, None], b[:, :, None], xg, c.label, adversarial, gamma)
            vals = eval_margin_loss(loss, arg)
            vals[..., wg == 0.0] = 0.0
            out += vals @ wg
    return out


def best_in_class_risk(
    loss, spec: HypothesisSpec, dist: LabeledDistribution, adversarial: bool = False
) -> BestInClass:
    """Infimum of the risk over the class at d=1.

    Unrestricted class: exact, as the expectation of the pointwise minimal
    conditional risk (the class attains the pointwise optimum everywhere).
    Linear class: coarse-to-fine (w, b) grid refinement; the returned value
    re-evaluates the best grid point with ``risk``'s exact quadrature.
    """
    if adversarial and not spec.adversarial:
        raise ValueError("adversarial best-in-class risk needs spec.gamma > 0")
    if spec.cls is HypothesisClass.ALL:
        if adversarial:
            raise ValueError("no exact machinery for the unrestricted class under perturbations")
        val, err = _expect_min_conditional(loss, HypothesisSpec(HypothesisClass.ALL), dist, False)
        return BestInClass(val, exact=True, tol=0.0, quad_err=err)
    if spec.cls is not HypothesisClass.LINEAR:
        raise ValueError("best-in-class search supports the linear and unrestricted classes")
    if not (math.isfinite(spec.W) and math.isfinite(spec.B)):
        raise ValueError("grid search needs finite W and B")
    gamma = spec.gamma if adversarial else 0.0
    w_lo, w_hi = -spec.W, spec.W
    b_lo, b_hi = -spec.B, spec.B
    wi = bi = 0.0
    for _ in range(_REFINE_ROUNDS):
        w_vals = np.linspace(w_lo, w_hi, _GRID_SIDE)
        b_vals = np.linspace(b_lo, b_hi, _GRID_SIDE)
        grid = _risk_grid(loss, dist, w_vals, b_vals, adversarial, gamma)
        i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
        wi, bi = float(w_vals[i]), float(b_vals[j])
        dw = (w_hi - w_lo) / (_GRID_SIDE - 1)
        db = (b_hi - b_lo) / (_GRID_SIDE - 1)
        w_lo, w_hi = max(-spec.W, wi - 2 * dw), min(spec.W, wi + 2 * dw)
        b_lo, b_hi = max(-spec.B, bi - 2 * db), min(spec.B, bi + 2 * db)
    best_h = LinearHypothesis((wi,), bi)
    val, _, err = risk(loss, best_h, dist, Exact(), adversarial=adversarial, gamma=gamma, with_error=True)
    return BestInClass(val, exact=False, tol=_BIC_TOL, w=wi, b=bi, quad_err=err)


def _expect_min_conditional(loss, spec, dist, adversarial) -> tuple:
    """(E_X of the pointwise minimal conditional risk, quadrature error
    estimate); the lower endpoint when only a bracket is available, which
    upper-bounds the resulting gap."""
    if isinstance(loss, ZeroOneLoss):
        return expectation(dist, lambda x, e: np.minimum(e, 1.0 - e), with_error=True)
    if adversarial:
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
        """JSON form; split is (surrogate_excess, M_surrogate) from ``surrogate_split``."""
        surrogate_excess, m_surrogate = split
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
            "provenance": dict(self.provenance),
        }


def _check_massart_on_dist(dist: LabeledDistribution, beta: float) -> int:
    """Grid check of |eta - 1/2| >= beta off zero-density sets; warns on
    violation and returns the number of violating grid points and atoms."""
    xs = np.linspace(-1.0, 1.0, 10001)
    dens = np.zeros_like(xs)
    for c in dist.continuous():
        dens += c.weight * c.law.pdf(xs)
    bad = int(np.count_nonzero((dens > 1e-12) & (np.abs(dist.eta(xs) - 0.5) < beta - 1e-12)))
    for c in dist.atoms():
        if abs(dist.eta(c.law.x) - 0.5) < beta - 1e-12:
            bad += 1
    if bad:
        warnings.warn(
            f"distribution violates the beta={beta:g} noise condition at {bad} grid points",
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
        (r_target, se_target), (r_surr, se_surr) = _mc_risks(
            (ZERO_ONE, surrogate), h, dist, mode, adversarial, gamma
        )
        r_surr_err = 0.0
    else:
        r_target, se_target = risk(ZERO_ONE, h, dist, Exact(), adversarial, gamma)
        r_surr, se_surr, r_surr_err = risk(surrogate, h, dist, Exact(), adversarial, gamma, with_error=True)
    _require_finite("surrogate risk R_surrogate(h)", r_surr)
    e_cstar_surr, e_surr_err = _expect_min_conditional(surrogate, spec, dist, adversarial)
    _require_finite("expected minimal conditional surrogate risk E[C*]", e_cstar_surr)
    y = r_surr - e_cstar_surr  # = surrogate excess + surrogate gap, grid-noise free
    _require_finite("Gamma's argument R_surrogate(h) - E[C*]", y)

    star_target = best_in_class_risk(ZERO_ONE, spec, dist, adversarial=adversarial)
    e_cstar_target, e_target_err = _expect_min_conditional(ZERO_ONE, spec, dist, adversarial)
    m_target = 0.0 if spec.cls is HypothesisClass.ALL else star_target.value - e_cstar_target
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
        ("best_in_class_tol", _BIC_TOL if spec.cls is not HypothesisClass.ALL else 0.0),
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
    """(surrogate_excess, M_surrogate) of a report from ``assemble_bound``
    with the same surrogate, spec and dist: R(h) - R*_H and R*_H - E[C*].

    For a linear class this runs the best-in-class search on the surrogate;
    the unrestricted class has R*_H = E[C*] and needs no search.
    """
    r_surr, e_cstar = report.r_surrogate, report.e_cstar_surrogate
    if spec.cls is HypothesisClass.ALL:
        return r_surr - e_cstar, 0.0
    star = best_in_class_risk(surrogate, spec, dist, adversarial=spec.adversarial).value
    return r_surr - star, star - e_cstar


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

    e_target = _expect_min_conditional(ZERO_ONE, spec, dist, False)[0]
    e_surr = _expect_min_conditional(surrogate, spec, dist, False)[0]
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
