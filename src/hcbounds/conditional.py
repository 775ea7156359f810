"""Conditional risks, their class-restricted minima, and a grid oracle.

Inputs are scalars x in [-1, 1] (d = 1); a point is the pair (|x|, t), |x|
standing for the paper's ||x||_p, which it equals at d = 1 for every p.  The
conditional risk of a score u at label-probability t is
C(u, t) = t*Phi(u) + (1-t)*Phi(-u).  For each loss family and bounded
hypothesis class the infimum over attainable scores has a closed form; the
same is true for the worst-case rho-margin loss over linear predictors, and
interval bounds are available for the worst-case hinge/sigmoid losses.

Every closed form here is cross-checkable against ``brute_force_inf``, an
independent oracle that minimizes the conditional risk over a uniform grid:
a grid of attainable scores in the standard setting, or a grid of (w, b)
pairs in the adversarial setting.  Infima over open constraint sets
(score < 0, worst-case score < 0) are computed on the closure of the set,
which is equivalent for continuous losses and lets the grid attain the
boundary value exactly.
"""

from __future__ import annotations

import enum
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .hypotheses import HypothesisClass, HypothesisSpec, attainable_adversarial_range, score_range
from .losses import LossFamily, MarginLoss, eval_margin_loss, sign, truncate

__all__ = [
    "ConditionalPoint",
    "RegretCase",
    "Constraint",
    "OracleInfeasibleError",
    "conditional_risk",
    "conditional_risk_zero_one",
    "min_conditional_risk",
    "min_conditional_risk_adversarial",
    "conditional_regret_zero_one",
    "conditional_regret_adversarial",
    "brute_force_inf",
    "thread_cap",
    "thread_map",
]

# Score cap standing in for the unbounded class in grid oracles.  Optimal
# scores of the losses in scope are within +-0.5*log-odds, so the cap only
# matters for t within e^-40 of {0, 1}.
_ALL_SCORE_CAP = 20.0


@dataclass(frozen=True)
class ConditionalPoint:
    """An input-norm / conditional-probability pair (||x||_p, t); at d = 1,
    ||x||_p = |x|."""

    x_norm_p: float
    t: float

    def __post_init__(self):
        if not 0.0 <= self.x_norm_p <= 1.0:
            raise ValueError(f"||x||_p must lie in [0, 1], got {self.x_norm_p}")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {self.t}")


class RegretCase(enum.Enum):
    """Position of a hypothesis's worst-case score interval relative to 0."""

    STRADDLING = "straddling"
    STRICTLY_NEGATIVE = "strictly-negative"
    STRICTLY_POSITIVE = "strictly-positive"
    OTHER = "other"


class Constraint(enum.Enum):
    NONE = "none"
    SCORE_NEGATIVE = "score-negative"
    ADV_STRADDLE = "adv-straddle"
    ADV_SUP_NEGATIVE = "adv-sup-negative"


class OracleInfeasibleError(ValueError):
    """The constrained hypothesis set is empty for the given point."""


def conditional_risk(loss: MarginLoss, spec: HypothesisSpec, u: float, point: ConditionalPoint) -> float:
    """t*Phi(u) + (1-t)*Phi(-u), with u validated against the attainable range."""
    if spec.cls is not HypothesisClass.ALL:
        lo, hi = score_range(spec, point.x_norm_p)
        if not lo <= u <= hi:
            raise ValueError(f"score u={u} outside attainable range [{lo}, {hi}]")
    return _interval_risk(loss, point.t, u, u)


def _interval_risk(loss: MarginLoss, t, lo, hi):
    """t*Phi(lo) + (1-t)*Phi(-hi): the worst-case conditional risk of a
    score interval [lo, hi], and the conditional risk of u at lo = hi = u.
    Scalars or broadcastable arrays."""
    return t * eval_margin_loss(loss, lo) + (1.0 - t) * eval_margin_loss(loss, -hi)


def conditional_risk_zero_one(u: float, t: float) -> float:
    """Conditional zero-one risk of a score: t when the score predicts -1, else 1-t."""
    return t if sign(u) < 0 else 1.0 - t


def _entropy2(t: float) -> float:
    """Binary entropy in bits, with 0*log(0) = 0."""
    acc = 0.0
    if t > 0.0:
        acc -= t * math.log2(t)
    if t < 1.0:
        acc -= (1.0 - t) * math.log2(1.0 - t)
    return acc


def _log_odds_within(t: float, s: float, half: bool = False) -> bool:
    """Whether |log(t/(1-t))| (halved if requested) is <= s. Exact at t in {0,1}."""
    if t in (0.0, 1.0):
        return math.isinf(s)
    lo = abs(math.log(t / (1.0 - t)))
    if half:
        lo *= 0.5
    return lo <= s


def min_risk_symmetric(loss: MarginLoss, s: float, t: float) -> float:
    """Infimum of the conditional risk over scores in [-s, s] (s may be +inf).

    For the rho-margin, hinge and sigmoid losses this is also the minimal
    worst-case conditional risk when s is the class's best worst-case score
    (which may be negative)."""
    tmax, tmin = max(t, 1.0 - t), min(t, 1.0 - t)
    fam = loss.family
    if fam is LossFamily.HINGE:
        return 1.0 - abs(2.0 * t - 1.0) * min(s, 1.0)
    if fam is LossFamily.LOGISTIC:
        if _log_odds_within(t, s):
            return _entropy2(t)
        # tmin = 0 happens only at t in {0,1}; skip the term so huge finite s
        # cannot overflow exp
        val = tmax * math.log2(1.0 + math.exp(-s))
        return val + (tmin * math.log2(1.0 + math.exp(s)) if tmin > 0.0 else 0.0)
    if fam is LossFamily.EXPONENTIAL:
        if _log_odds_within(t, s, half=True):
            return 2.0 * math.sqrt(t * (1.0 - t))
        return tmax * math.exp(-s) + (tmin * math.exp(s) if tmin > 0.0 else 0.0)
    if fam is LossFamily.QUADRATIC:
        if abs(2.0 * t - 1.0) <= s:
            return 4.0 * t * (1.0 - t)
        return tmax * (1.0 - s) ** 2 + tmin * (1.0 + s) ** 2
    if fam is LossFamily.SIGMOID:
        return 1.0 - abs(1.0 - 2.0 * t) * (1.0 if math.isinf(s) else math.tanh(loss.k * s))
    if fam is LossFamily.RHO_MARGIN:
        return tmin + tmax * (1.0 - min(s, loss.rho) / loss.rho)
    raise ValueError(f"unknown loss family {fam!r}")


def min_conditional_risk(loss: MarginLoss, spec: HypothesisSpec, point: ConditionalPoint) -> float:
    """Closed-form minimal conditional risk over the class at a point (gamma = 0)."""
    if spec.adversarial:
        raise ValueError(
            "spec has gamma > 0; use min_conditional_risk_adversarial for worst-case losses"
        )
    return min_risk_symmetric(loss, spec.score_bound(point.x_norm_p), point.t)


def min_conditional_risk_adversarial(
    loss: MarginLoss, spec: HypothesisSpec, point: ConditionalPoint
) -> tuple:
    """Bracket (lo, hi) on the minimal worst-case conditional risk at a point.

    For the worst-case rho-margin loss over linear predictors the bracket
    collapses to the exact value.  For ReLU networks, and for the worst-case
    hinge/sigmoid losses over either class, only two-sided bounds exist.
    Worst-case logistic/exponential/quadratic losses are rejected: no closed
    form is available and no nontrivial distribution-independent guarantee
    exists for them.
    """
    if not spec.adversarial:
        raise ValueError("adversarial minimal conditional risk requires gamma > 0")
    if spec.cls not in (HypothesisClass.LINEAR, HypothesisClass.ONE_HIDDEN_RELU):
        raise ValueError("adversarial closed forms cover linear and ReLU classes only")
    fam = loss.family
    if fam in (LossFamily.LOGISTIC, LossFamily.EXPONENTIAL, LossFamily.QUADRATIC):
        raise ValueError(
            f"no closed form for the worst-case {fam.value} loss; "
            "only a trivial guarantee exists for worst-case convex losses"
        )
    reach_lo, reach_hi = attainable_adversarial_range(spec, point.x_norm_p)
    t = point.t
    # Rho-margin: exact given the class's best worst-case score; bracket that
    # score.  Hinge / sigmoid: the lower bound decouples the two worst-case
    # scores, the upper bound takes the bias-only witness (reach margin_scale).
    upper_reach = reach_lo if fam is LossFamily.RHO_MARGIN else spec.margin_scale()
    return min_risk_symmetric(loss, reach_hi, t), min_risk_symmetric(loss, upper_reach, t)


def _check_sign_rich(spec: HypothesisSpec) -> None:
    if spec.cls is HypothesisClass.ALL:
        return
    if spec.margin_scale() <= 0:
        raise ValueError(
            "class cannot realize both signs at every point (needs B > 0, "
            "and Lambda > 0 for ReLU networks)"
        )


def conditional_regret_zero_one(
    spec: HypothesisSpec,
    point: ConditionalPoint,
    h_predicts_wrong_side: bool,
    eps: float = 0.0,
) -> float:
    """Truncated conditional regret of the zero-one loss.

    Equals <2|t - 1/2|>_eps when the hypothesis's sign disagrees with the
    Bayes sign (or t = 1/2), and 0 otherwise.
    """
    _check_sign_rich(spec)
    if not h_predicts_wrong_side:
        return 0.0
    return truncate(2.0 * abs(point.t - 0.5), eps)


def conditional_regret_adversarial(
    spec: HypothesisSpec,
    point: ConditionalPoint,
    case: RegretCase,
    eps: float = 0.0,
) -> float:
    """Truncated conditional regret of the robust zero-one loss, by case.

    The four cases partition hypotheses by where their worst-case score
    interval sits: straddling zero, strictly negative, strictly positive,
    or none of these (regret 0).
    """
    _check_sign_rich(spec)
    delta = point.t - 0.5
    if case is RegretCase.STRADDLING:
        return truncate(abs(delta) + 0.5, eps)
    if case is RegretCase.STRICTLY_NEGATIVE:
        return truncate(2.0 * delta, eps)
    if case is RegretCase.STRICTLY_POSITIVE:
        return truncate(-2.0 * delta, eps)
    return 0.0


def brute_force_inf(
    loss: MarginLoss,
    spec: HypothesisSpec,
    point: ConditionalPoint,
    constraint: Constraint = Constraint.NONE,
    grid_n: int = 4001,
) -> float:
    """Grid minimum of the conditional risk; the package's independent oracle.

    gamma = 0: minimizes t*Phi(u) + (1-t)*Phi(-u) over a uniform grid of
    attainable scores u (``SCORE_NEGATIVE`` restricts to u <= 0, the closure
    of the open constraint).  gamma > 0 (linear class only): minimizes the
    worst-case conditional risk over a uniform (w, b) grid, with the
    requested case constraint applied to the worst-case score interval.

    Accuracy is O(1/grid_n); the default 4001 keeps the error within 2e-3
    for the parameter ranges used in the verification suite.  Odd grid_n
    places 0 on the grid.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if spec.adversarial:
        if constraint is Constraint.SCORE_NEGATIVE:
            raise ValueError("SCORE_NEGATIVE applies to the non-adversarial oracle only")
        if spec.cls is not HypothesisClass.LINEAR:
            raise ValueError("the adversarial oracle enumerates linear hypotheses only")
        return _adversarial_grid_inf(loss, spec, point, constraint, grid_n)
    if constraint in (Constraint.ADV_STRADDLE, Constraint.ADV_SUP_NEGATIVE):
        raise ValueError("adversarial constraints require a spec with gamma > 0")
    return _score_grid_inf(loss, spec, point, constraint, grid_n)


def _score_grid_inf(loss, spec, point, constraint, grid_n):
    if spec.cls is HypothesisClass.ALL:
        lo, hi = -_ALL_SCORE_CAP, _ALL_SCORE_CAP
    else:
        lo, hi = score_range(spec, point.x_norm_p)
        if math.isinf(hi):  # unbounded-bias sentinel: fall back to the cap
            lo, hi = -_ALL_SCORE_CAP, _ALL_SCORE_CAP
    if constraint is Constraint.SCORE_NEGATIVE:
        if lo >= 0.0:
            raise OracleInfeasibleError("no attainable strictly negative score at this point")
        hi = 0.0
    grid = np.linspace(lo, hi, grid_n)
    return float(_interval_risk(loss, point.t, grid, grid).min())


# Rows of the (w, b) grid per chunk: at grid_n=4001 the two float64 chunk
# buffers take 1 MB each and fit a 2 MB per-core L2 cache together.
_ADV_CHUNK = 32


def thread_cap() -> int:
    """Worker threads for the adversarial grid oracle, the simulation sweeps'
    sigma cells and the sampler's blocks: ``HCB_THREADS``, clamped to
    ``os.cpu_count()``, which is also the default when it is unset.  Pools do
    not nest (see ``thread_map``), so no more than this many workers run at
    once.  Results never depend on it.  Raises ValueError unless the variable
    is an integer >= 1."""
    cpus = os.cpu_count() or 1
    raw = os.environ.get("HCB_THREADS", "")
    if not raw:
        return cpus
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"HCB_THREADS must be an integer >= 1, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"HCB_THREADS must be >= 1, got {cap}")
    return min(cap, cpus)


# set in every pool worker, so that a thread_map called from inside one runs inline
_in_worker = threading.local()


def _mark_worker() -> None:
    _in_worker.flag = True


def thread_map(fn, items) -> list:
    """``[fn(item) for item in items]``, run on ``min(thread_cap(), len(items))``
    threads of a per-call pool; inline when that is 1 or when called from a
    worker of another ``thread_map`` (a sweep cell's sampler, say), so pools
    never nest and ``thread_cap()`` bounds the live workers.  Results come
    back in item order, so a caller that merges them in order gets the same
    answer at every thread count."""
    items = list(items)
    workers = 1 if getattr(_in_worker, "flag", False) else min(thread_cap(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers, initializer=_mark_worker) as pool:
        return list(pool.map(fn, items))


def _sup_risk_inplace(loss, t, h_lo, h_hi):
    """Worst-case conditional risk t*Phi(h_lo) + (1-t)*Phi(-h_hi).  Fused and
    in place, overwriting both buffers, for the rho-margin family (the
    oracle's hot path); ``_interval_risk`` for the others."""
    if loss.family is LossFamily.RHO_MARGIN:
        h_lo /= -loss.rho
        h_lo += 1.0
        np.clip(h_lo, 0.0, 1.0, out=h_lo)
        h_lo *= t
        h_hi /= loss.rho
        h_hi += 1.0
        np.clip(h_hi, 0.0, 1.0, out=h_hi)
        h_hi *= 1.0 - t
        h_lo += h_hi
        return h_lo
    return _interval_risk(loss, t, h_lo, h_hi)


def _adversarial_grid_inf(loss, spec, point, constraint, grid_n):
    t, x, gam = point.t, point.x_norm_p, spec.gamma
    reach, _ = attainable_adversarial_range(spec, x)
    if constraint is Constraint.ADV_SUP_NEGATIVE and reach <= 0.0:
        raise OracleInfeasibleError("no hypothesis has a strictly negative worst-case score here")
    w_grid = np.linspace(-spec.W, spec.W, grid_n)
    b_grid = np.linspace(-spec.B, spec.B, grid_n)

    def block_min(starts):
        # one pair of cache-sized buffers per worker, sliced for the ragged last chunk
        h_lo_buf = np.empty((min(_ADV_CHUNK, grid_n), grid_n))
        h_hi_buf = np.empty_like(h_lo_buf)
        best = math.inf
        for start in starts:
            w = w_grid[start : start + _ADV_CHUNK, None]
            h_lo, h_hi = h_lo_buf[: w.shape[0]], h_hi_buf[: w.shape[0]]
            spread = gam * np.abs(w)
            np.add(w * x, b_grid, out=h_lo)
            np.add(h_lo, spread, out=h_hi)
            h_lo -= spread
            if constraint is Constraint.ADV_STRADDLE:
                mask = (h_lo <= 0.0) & (h_hi >= 0.0)
            elif constraint is Constraint.ADV_SUP_NEGATIVE:
                mask = h_hi <= 0.0  # closure of the open constraint
            else:
                mask = True
            vals = _sup_risk_inplace(loss, t, h_lo, h_hi)
            best = min(best, float(np.min(vals, where=mask, initial=math.inf)))
        return best

    starts = range(0, grid_n, _ADV_CHUNK)
    workers = min(thread_cap(), len(starts))
    # min is exact, so the merged minimum does not depend on the split
    best = min(thread_map(block_min, [starts[i::workers] for i in range(workers)]))
    if not math.isfinite(best):
        raise OracleInfeasibleError(f"constraint {constraint.value} is infeasible on the grid")
    return best
