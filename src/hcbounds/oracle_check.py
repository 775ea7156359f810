"""Randomized cross-checks of every closed form against the grid oracle.

One row per (loss, class) pair in scope.  Each row draws random parameter
instances, compares the closed-form minimal conditional risk against
``brute_force_inf``, and (non-adversarial rows) compares the forward
transform against the constrained-minus-unconstrained oracle infima
minimized over an input-norm grid.  The worst-case rho-margin row for ReLU
networks is checked by exact evaluation of sampled one-hidden-layer networks
at d=1 against the closed-form bracket.  Each row also reports its worst
instance, recorded only when a row's largest deviation moves.

The deviation threshold scales with grid resolution: tol(grid_n) =
2e-3 * max(1, 4001/grid_n), matching the oracle's O(1/grid_n) accuracy.
That slack is needed on one side only: every grid point is a feasible
hypothesis, so a closed-form infimum may exceed the oracle by rounding
(ONE_SIDED_TOLERANCE) and never by grid resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditional import (
    ConditionalPoint,
    Constraint,
    _interval_risk,
    _score_grids_inf,
    _score_ranges,
    brute_force_inf,
    min_conditional_risk,
    min_conditional_risk_adversarial,
)
from .hypotheses import HypothesisClass, HypothesisSpec
from .losses import LossFamily, MarginLoss, rho_margin, sigmoid
from .transforms import transform

__all__ = ["OracleCheckRow", "run_oracle_checks", "BASE_TOLERANCE", "ONE_SIDED_TOLERANCE"]

BASE_TOLERANCE = 2e-3
ONE_SIDED_TOLERANCE = 1e-12
_X_GRID_POINTS = 21


@dataclass(frozen=True)
class OracleCheckRow:
    label: str
    instances: int
    max_dev_min_risk: float
    max_dev_transform: float
    threshold: float
    passed: bool
    # max of closed - oracle over the min-risk comparisons; NaN on the bracket row
    max_closed_over_oracle: float
    # the instance that set the row's largest deviation (``_instance``)
    worst: dict


def _tolerance(grid_n: int) -> float:
    return BASE_TOLERANCE * max(1.0, 4001.0 / grid_n)


def _pick_loss(name: str, rng) -> MarginLoss:
    """The loss named, its k or rho drawn; both are drawn for every loss, so
    a row's stream does not depend on its loss."""
    k, rho = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 1.5))
    if name == "sigmoid":
        return sigmoid(k)
    if name == "rho-margin":
        return rho_margin(rho)
    return MarginLoss(LossFamily(name))


def _instance(check, loss, spec, closed, oracle, x, t, t_arg=None) -> dict:
    """A row's worst instance, from the tuple of these arguments that a row
    keeps while it runs: the check that set its largest deviation
    ("min-risk", "transform" or "bracket"), the loss and its k or rho, the
    class and its budgets, the inputs x, t and (non-adversarial rows) t_arg,
    and the two values compared, ``closed`` (tamper nudge included) and
    ``oracle``.  An empty dict when no deviation was a number."""
    if check is None:
        return {}
    fam = loss.family
    param = {"k": loss.k} if fam is LossFamily.SIGMOID else {"rho": loss.rho} if fam is LossFamily.RHO_MARGIN else {}
    inputs = {"x": x, "t": t} if t_arg is None else {"x": x, "t": t, "t_arg": t_arg}
    return {"check": check, "loss": fam.value, **param, "class": spec.cls.value, "W": spec.W, "B": spec.B,
            "Lambda": spec.Lambda, "gamma": spec.gamma, **inputs, "closed": closed, "oracle": oracle}


def _sample_spec(rng, cls: HypothesisClass, gamma: float = 0.0) -> HypothesisSpec:
    if cls is HypothesisClass.LINEAR:
        return HypothesisSpec(cls, W=float(rng.uniform(0.2, 2.0)), B=float(rng.uniform(0.05, 2.0)), gamma=gamma)
    return HypothesisSpec(
        cls,
        W=float(rng.uniform(0.1, 1.5)),
        B=float(rng.uniform(0.1, 1.5)),
        Lambda=float(rng.uniform(0.3, 1.6)),
        gamma=gamma,
    )


def _nonadv_row(loss_name, cls, instances, grid_n, seed, tamper):
    rng = np.random.default_rng(seed)
    nudge = 5.0 * _tolerance(grid_n)
    dev_min = dev_trans = 0.0
    over = worst_dev = -math.inf
    worst = (None,) * 7
    # one oracle call per instance on 43 grids: the point's, then the
    # constrained and the unconstrained grid at each x of the x grid
    xs = np.empty(1 + _X_GRID_POINTS)
    xs[1:] = np.linspace(0.0, 1.0, _X_GRID_POINTS)
    ts = np.empty(1 + 2 * _X_GRID_POINTS)
    zeros = np.zeros(_X_GRID_POINTS)
    for _ in range(instances):
        loss = _pick_loss(loss_name, rng)
        spec = _sample_spec(rng, cls)
        point = ConditionalPoint(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
        t_arg = float(rng.uniform(0.5, 1.0))
        xs[0] = point.x_norm_p
        ts[0], ts[1:] = point.t, t_arg
        # SCORE_NEGATIVE's grid at x is [lo, 0]: every drawn spec has B > 0, so
        # each x has a strictly negative score
        lo, hi = _score_ranges(spec, xs, Constraint.NONE)
        mins = _score_grids_inf(loss, ts, np.concatenate((lo, lo[1:])), np.concatenate((hi[:1], zeros, hi[1:])), grid_n)
        closed = min_conditional_risk(loss, spec, point)
        if tamper:
            closed += nudge
        oracle = float(mins[0])
        dev = abs(closed - oracle)
        dev_min = max(dev_min, dev)
        over = max(over, closed - oracle)
        if dev > worst_dev:
            worst_dev, worst = dev, ("min-risk", loss, spec, closed, oracle, point.x_norm_p, point.t, t_arg)
        # transform vs constrained-minus-unconstrained infima, minimized over x
        fwd = float(transform(loss, spec)(2.0 * t_arg - 1.0))
        if tamper:
            fwd += nudge
        best = float(np.min(mins[1 : _X_GRID_POINTS + 1] - mins[_X_GRID_POINTS + 1 :]))
        dev = abs(fwd - best)
        dev_trans = max(dev_trans, dev)
        if dev > worst_dev:
            worst_dev, worst = dev, ("transform", loss, spec, fwd, best, point.x_norm_p, point.t, t_arg)
    return dev_min, dev_trans, over, _instance(*worst)


def _adv_linear_row(instances, grid_n, seed, tamper):
    rng = np.random.default_rng(seed)
    nudge = 5.0 * _tolerance(grid_n)
    dev = 0.0
    over = worst_dev = -math.inf
    worst = (None,) * 7
    for _ in range(instances):
        loss = rho_margin(rho=float(rng.uniform(0.5, 1.5)))
        spec = HypothesisSpec(
            HypothesisClass.LINEAR,
            W=float(rng.uniform(0.2, 1.5)),
            B=float(rng.uniform(0.05, 1.5)),
            gamma=float(rng.uniform(0.05, 0.3)),
        )
        point = ConditionalPoint(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
        lo, hi = min_conditional_risk_adversarial(loss, spec, point)
        assert abs(hi - lo) < 1e-12  # exact for the linear class
        closed = lo + (nudge if tamper else 0.0)
        oracle = brute_force_inf(loss, spec, point, Constraint.NONE, grid_n)
        dev = max(dev, abs(closed - oracle))
        over = max(over, closed - oracle)
        if dev > worst_dev:
            worst_dev, worst = dev, ("min-risk", loss, spec, closed, oracle, point.x_norm_p, point.t)
    return dev, over, _instance(*worst)


def _sample_networks(rng, spec):
    """(u, w, b) of an instance's 96 sampled networks of 1 to 3 hidden units,
    one per row, padded to 3 units with u = w = 0 (a padded unit adds 0).

    Five draws make all of them: the unit counts, a (96, 3) block of raw
    outer weights, the 96 fractions of Lambda that their l1 norms are scaled
    to, a (96, 3) block of w and the 96 biases, each masked to its network's
    units.  A network's units are i.i.d.: raw and w uniform on [-1, 1] and
    [-W, W], b uniform on [-B, B], and sum |u| = Lambda times a fraction
    uniform on [0.2, 1].  Rows 0 and 1 are then the bias-only witnesses
    h = +-Lambda*relu(B): the sign must come through u because a ReLU
    discards a negative bias."""
    n = 96
    live = np.arange(3) < rng.integers(1, 4, n)[:, None]
    raw = np.where(live, rng.uniform(-1.0, 1.0, (n, 3)), 0.0)
    total = np.sum(np.abs(raw), axis=1)
    scale = np.divide(spec.Lambda * rng.uniform(0.2, 1.0, n), total, out=np.zeros(n), where=total > 0.0)
    u = raw * scale[:, None]
    w = np.where(live, rng.uniform(-spec.W, spec.W, (n, 3)), 0.0)
    b = rng.uniform(-spec.B, spec.B, n)
    u[:2], w[:2], b[:2] = 0.0, 0.0, spec.B
    u[:2, 0] = spec.Lambda, -spec.Lambda
    return u, w, b


def _relu_ball_extrema(u, w, b, x, gamma):
    """Exact extrema of sum_j u_j*relu(w_j*x' + b) over [x-gamma, x+gamma] at
    d=1, one network per row: the network is piecewise linear, so extremes
    occur at the ball's ends or at the kinks inside it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = -b[:, None] / w
    inside = (w != 0.0) & (x - gamma < kinks) & (kinks < x + gamma)
    ends = np.broadcast_to([x - gamma, x + gamma], (len(b), 2))
    cands = np.concatenate([ends, np.where(inside, kinks, x - gamma)], axis=1)
    vals = np.sum(u[:, None, :] * np.maximum(w[:, None, :] * cands[:, :, None] + b[:, None, None], 0.0), axis=2)
    return vals.min(axis=1), vals.max(axis=1)


def _adv_relu_row(instances, seed, tamper):
    """Sampled-network bracketing check for the worst-case rho-margin closed
    forms over one-hidden-layer ReLU networks."""
    rng = np.random.default_rng(seed)
    dev = 0.0
    worst_violation = -math.inf
    worst = (None,) * 7
    for _ in range(instances):
        loss = rho_margin(rho=float(rng.uniform(0.5, 1.5)))
        spec = _sample_spec(rng, cls=HypothesisClass.ONE_HIDDEN_RELU, gamma=float(rng.uniform(0.05, 0.3)))
        x = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 1.0))
        lo, hi = min_conditional_risk_adversarial(loss, spec, ConditionalPoint(x, t))
        if tamper:
            lo, hi = lo + 1.0, hi + 1.0  # shove the bracket clear of every sampled value
        h_lo, h_hi = _relu_ball_extrema(*_sample_networks(rng, spec), x, spec.gamma)
        best = float(_interval_risk(loss, t, h_lo, h_hi).min())
        violation = max(lo - best, best - hi)  # sampled min must land inside [lo, hi]
        dev = max(dev, max(violation, 0.0))
        if violation > worst_violation:
            nearer = lo if lo - best >= best - hi else hi
            worst_violation, worst = violation, ("bracket", loss, spec, nearer, best, x, t)
    return dev, _instance(*worst)


def run_oracle_checks(grid_n: int = 4001, instances: int = 25, seed: int = 0, tamper: bool = False):
    """Run every row; returns a list of OracleCheckRow (all must pass)."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    tol = _tolerance(grid_n)

    def grid_row(label, dev_min, dev_trans, over, worst):
        trans_ok = math.isnan(dev_trans) or dev_trans <= tol
        passed = dev_min <= tol and trans_ok and over <= ONE_SIDED_TOLERANCE
        return OracleCheckRow(label, instances, dev_min, dev_trans, tol, passed, over, worst)

    rows = []
    fams = ["hinge", "logistic", "exponential", "quadratic", "sigmoid", "rho-margin"]
    for cls in (HypothesisClass.LINEAR, HypothesisClass.ONE_HIDDEN_RELU):
        for k, fam in enumerate(fams):
            row_seed = seed * 1009 + k + (0 if cls is HypothesisClass.LINEAR else 6)
            rows.append(grid_row(f"{fam} / {cls.value}", *_nonadv_row(fam, cls, instances, grid_n, row_seed, tamper)))
    dev, over, worst = _adv_linear_row(instances, grid_n, seed * 1009 + 12, tamper)
    rows.append(grid_row("sup-rho-margin / linear", dev, math.nan, over, worst))
    dev, worst = _adv_relu_row(instances, seed * 1009 + 13, tamper)
    relu_tol = 1e-9  # bracket check is exact; any violation is a logic error
    rows.append(
        OracleCheckRow(
            "sup-rho-margin / relu (bracket)", instances, dev, math.nan, relu_tol, dev <= relu_tol,
            math.nan, worst,
        )
    )
    return rows
