"""Randomized cross-checks of every closed form against the grid oracle.

One row per (loss, class) pair in scope.  Each row draws random parameter
instances, compares the closed-form minimal conditional risk against
``brute_force_inf``, and (non-adversarial rows) compares the forward
transform against the constrained-minus-unconstrained oracle infima
minimized over an input-norm grid.  The worst-case rho-margin row for ReLU
networks is checked by exact evaluation of sampled one-hidden-layer networks
at d=1 against the closed-form bracket.

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
from .losses import (
    MarginLoss,
    exponential,
    hinge,
    logistic,
    quadratic,
    rho_margin,
    sigmoid,
)
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


def _tolerance(grid_n: int) -> float:
    return BASE_TOLERANCE * max(1.0, 4001.0 / grid_n)


def _losses(rng) -> list:
    return [
        hinge(),
        logistic(),
        exponential(),
        quadratic(),
        sigmoid(k=float(rng.uniform(0.5, 2.0))),
        rho_margin(rho=float(rng.uniform(0.5, 1.5))),
    ]


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
    dev_min = 0.0
    over = -math.inf
    dev_trans = 0.0
    x_grid = np.linspace(0.0, 1.0, _X_GRID_POINTS)
    for _ in range(instances):
        loss = _pick_loss(loss_name, rng)
        spec = _sample_spec(rng, cls)
        point = ConditionalPoint(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
        t_arg = float(rng.uniform(0.5, 1.0))
        # one oracle call per instance: the point's grid, then the constrained
        # and the unconstrained grid at each x of x_grid
        lo, hi = _score_ranges(spec, np.r_[point.x_norm_p, x_grid], Constraint.NONE)
        neg_lo, neg_hi = _score_ranges(spec, x_grid, Constraint.SCORE_NEGATIVE)
        ts = np.r_[point.t, np.full(2 * _X_GRID_POINTS, t_arg)]
        mins = _score_grids_inf(loss, ts, np.r_[lo[:1], neg_lo, lo[1:]], np.r_[hi[:1], neg_hi, hi[1:]], grid_n)
        closed = min_conditional_risk(loss, spec, point)
        if tamper:
            closed += nudge
        oracle = float(mins[0])
        dev_min = max(dev_min, abs(closed - oracle))
        over = max(over, closed - oracle)
        # transform vs constrained-minus-unconstrained infima, minimized over x
        fwd = float(transform(loss, spec)(2.0 * t_arg - 1.0))
        if tamper:
            fwd += nudge
        best = float(np.min(mins[1 : _X_GRID_POINTS + 1] - mins[_X_GRID_POINTS + 1 :]))
        dev_trans = max(dev_trans, abs(fwd - best))
    return dev_min, dev_trans, over


def _adv_linear_row(instances, grid_n, seed, tamper):
    rng = np.random.default_rng(seed)
    nudge = 5.0 * _tolerance(grid_n)
    dev = 0.0
    over = -math.inf
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
    return dev, over


def _sample_networks(rng, spec):
    """(u, w, b) of an instance's 96 sampled networks of 1 to 3 hidden units,
    one per row, padded to 3 units with u = w = 0 (a padded unit adds 0).
    The first two are the bias-only witnesses h = +-Lambda*relu(B): the sign
    must come through u because a ReLU discards a negative bias."""
    u, w = np.zeros((96, 3)), np.zeros((96, 3))
    b = np.full(96, spec.B)
    u[:2, 0] = spec.Lambda, -spec.Lambda
    for trial in range(96):
        n_units = int(rng.integers(1, 4))
        if trial >= 2:
            raw = rng.uniform(-1.0, 1.0, n_units)
            total = np.sum(np.abs(raw))
            u[trial, :n_units] = raw * (spec.Lambda * rng.uniform(0.2, 1.0) / total) if total else raw
            w[trial, :n_units] = rng.uniform(-spec.W, spec.W, n_units)
            b[trial] = rng.uniform(-spec.B, spec.B)
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
    return dev


def run_oracle_checks(grid_n: int = 4001, instances: int = 25, seed: int = 0, tamper: bool = False):
    """Run every row; returns a list of OracleCheckRow (all must pass)."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    tol = _tolerance(grid_n)

    def grid_row(label, dev_min, dev_trans, over):
        trans_ok = math.isnan(dev_trans) or dev_trans <= tol
        passed = dev_min <= tol and trans_ok and over <= ONE_SIDED_TOLERANCE
        return OracleCheckRow(label, instances, dev_min, dev_trans, tol, passed, over)

    rows = []
    fams = ["hinge", "logistic", "exponential", "quadratic", "sigmoid", "rho-margin"]
    for cls in (HypothesisClass.LINEAR, HypothesisClass.ONE_HIDDEN_RELU):
        for k, fam in enumerate(fams):
            row_seed = seed * 1009 + k + (0 if cls is HypothesisClass.LINEAR else 6)
            dm, dt, over = _nonadv_row(fam, cls, instances, grid_n, row_seed, tamper)
            rows.append(grid_row(f"{fam} / {cls.value}", dm, dt, over))
    dev, over = _adv_linear_row(instances, grid_n, seed * 1009 + 12, tamper)
    rows.append(grid_row("sup-rho-margin / linear", dev, math.nan, over))
    dev = _adv_relu_row(instances, seed * 1009 + 13, tamper)
    relu_tol = 1e-9  # bracket check is exact; any violation is a logic error
    rows.append(
        OracleCheckRow(
            "sup-rho-margin / relu (bracket)", instances, dev, math.nan, relu_tol, dev <= relu_tol,
            math.nan,
        )
    )
    return rows


def _pick_loss(name: str, rng) -> MarginLoss:
    for loss in _losses(rng):
        if loss.family.value == name:
            return loss
    raise ValueError(f"unknown loss name {name!r}")
