"""Randomized cross-checks of every closed form against the grid oracle.

One row per (loss, class) pair in scope.  Each row draws random parameter
instances, compares the closed-form minimal conditional risk against
``brute_force_inf``, and (non-adversarial rows) compares the forward
transform against the constrained-minus-unconstrained oracle infima
minimized over an input-norm grid.  The worst-case rho-margin row for ReLU
networks is checked by exact evaluation of sampled one-hidden-layer networks
at d=1 against the closed-form bracket.  A row's ``_Record`` keeps its
maxima and worst instance; a deviation that is not a number fails the row.

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
# limits other than the grid tolerance: one-sided, the linear bracket's width (exact: < 1e-12), ReLU bracket (exact)
_LIMITS = {"over": ONE_SIDED_TOLERANCE, "collapse": math.nextafter(1e-12, 0.0), "bracket": 1e-9}


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


def _exceeds(new, old) -> bool:
    # new replaces old as a maximum: it is larger, or it is NaN and old is not
    return old == old and not new <= old


class _Record:
    """A row's maxima, which every comparison of the row goes through: each
    check's largest deviation (at least 0), the largest closed - oracle of
    the one-sided "min-risk" checks (as check "over") and the worst
    instance's ``_instance`` arguments.  A NaN deviation counts as the
    largest and is kept, and a row passes when each check's largest
    deviation is at most its limit (``_LIMITS``, else the grid tolerance)."""

    def __init__(self, *checks):
        self.dev = {check: -math.inf if check == "over" else 0.0 for check in checks}
        self.worst_dev = -math.inf

    def see(self, check, dev, loss, spec, closed, oracle, x, t, t_arg=None):
        if _exceeds(dev, self.dev[check]):
            self.dev[check] = dev
        if check == "min-risk" and _exceeds(closed - oracle, self.dev["over"]):
            self.dev["over"] = closed - oracle
        if _exceeds(dev, self.worst_dev):
            self.worst_dev, self.worst = dev, (check, loss, spec, closed, oracle, x, t, t_arg)

    def row(self, label: str, instances: int, tol: float) -> OracleCheckRow:
        dev, limit = self.dev, lambda check: _LIMITS.get(check, tol)
        first = next(iter(dev))  # the row's min-risk column
        passed = all(value <= limit(check) for check, value in dev.items())
        return OracleCheckRow(label, instances, dev[first], dev.get("transform", math.nan), limit(first), passed,
                              dev.get("over", math.nan), _instance(*self.worst))


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
    """A row's worst instance: the check that set its largest deviation
    ("min-risk", "transform", "bracket" or "collapse"), the loss and its k or
    rho, the class and its budgets, the inputs (t_arg on non-adversarial
    rows) and the two values compared: ``closed`` (tamper nudge included) and
    ``oracle``, or for "collapse" the linear bracket's hi and lo."""
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
    rec = _Record("min-risk", "transform", "over")
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
        rec.see("min-risk", abs(closed - oracle), loss, spec, closed, oracle, point.x_norm_p, point.t, t_arg)
        # transform vs constrained-minus-unconstrained infima, minimized over x
        fwd = float(transform(loss, spec)(2.0 * t_arg - 1.0))
        if tamper:
            fwd += nudge
        best = float(np.min(mins[1 : _X_GRID_POINTS + 1] - mins[_X_GRID_POINTS + 1 :]))
        rec.see("transform", abs(fwd - best), loss, spec, fwd, best, point.x_norm_p, point.t, t_arg)
    return rec


def _adv_linear_row(instances, grid_n, seed, tamper):
    rng = np.random.default_rng(seed)
    nudge = 5.0 * _tolerance(grid_n)
    rec = _Record("min-risk", "over", "collapse")
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
        closed = lo + (nudge if tamper else 0.0)
        oracle = brute_force_inf(loss, spec, point, Constraint.NONE, grid_n)
        rec.see("min-risk", abs(closed - oracle), loss, spec, closed, oracle, point.x_norm_p, point.t)
        rec.see("collapse", abs(hi - lo), loss, spec, hi, lo, point.x_norm_p, point.t)
    return rec


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
    rec = _Record("bracket")
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
        # the sampled min must land inside [lo, hi]: a signed violation, NaN when an end is
        violation, nearer = (best - hi, hi) if _exceeds(best - hi, lo - best) else (lo - best, lo)
        rec.see("bracket", violation, loss, spec, nearer, best, x, t)
    return rec


def run_oracle_checks(grid_n: int = 4001, instances: int = 25, seed: int = 0, tamper: bool = False):
    """Run every row; returns a list of OracleCheckRow (all must pass)."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    tol, records = _tolerance(grid_n), {}
    fams = ["hinge", "logistic", "exponential", "quadratic", "sigmoid", "rho-margin"]
    for cls in (HypothesisClass.LINEAR, HypothesisClass.ONE_HIDDEN_RELU):
        for k, fam in enumerate(fams):
            row_seed = seed * 1009 + k + (0 if cls is HypothesisClass.LINEAR else 6)
            records[f"{fam} / {cls.value}"] = _nonadv_row(fam, cls, instances, grid_n, row_seed, tamper)
    records["sup-rho-margin / linear"] = _adv_linear_row(instances, grid_n, seed * 1009 + 12, tamper)
    records["sup-rho-margin / relu (bracket)"] = _adv_relu_row(instances, seed * 1009 + 13, tamper)
    return [rec.row(label, instances, tol) for label, rec in records.items()]
