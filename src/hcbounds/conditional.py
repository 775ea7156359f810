"""Conditional risks, their class-restricted minima, and a grid oracle.

Inputs are scalars x in [-1, 1] (d = 1); a point is the pair (|x|, t), |x|
standing for the paper's ||x||_p, which it equals at d = 1 for every p.  The
conditional risk of a score u at label-probability t is
C(u, t) = t*Phi(u) + (1-t)*Phi(-u).  For each loss family and bounded
hypothesis class the infimum over attainable scores has a closed form; the
same is true for the worst-case rho-margin loss over linear predictors, and
interval bounds are available for the worst-case hinge/sigmoid losses.
The closed forms take arrays of (|x|, t), so that E[C*] integrates them on
whole quadrature rounds; the public functions are their scalar case.

Every closed form here is cross-checkable against ``brute_force_inf``, an
independent oracle that minimizes the conditional risk over a uniform grid:
a grid of attainable scores in the standard setting, or a grid of (w, b)
pairs in the adversarial setting.  Infima over open constraint sets
(score < 0, worst-case score < 0) are computed on the closure of the set,
which is equivalent for continuous losses and lets the grid attain the
boundary value exactly.  Both oracles run on the calling thread and skip
blocks of cells whose rounded risks provably cannot go below the best cell
found, so each minimum is the whole grid's, bit for bit; the (w, b) oracle
first bounds tiles of 16 rows of blocks, and cuts only the tiles that could
hold a smaller cell into their blocks.  The score-grid kernel takes many
grids per call: the oracle-check rows pass all of an instance's grids at
once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .hypotheses import HypothesisClass, HypothesisSpec, attainable_adversarial_range
from .losses import LossFamily, MarginLoss, eval_margin_loss

__all__ = [
    "ConditionalPoint",
    "Constraint",
    "OracleInfeasibleError",
    "min_conditional_risk",
    "min_conditional_risk_adversarial",
    "brute_force_inf",
]

# Score cap standing in for the unbounded class, and for any wider range, in
# the score-grid oracle.  Optimal scores of the losses in scope are within
# +-0.5*log-odds, so the cap only matters for t within e^-40 of {0, 1}.
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


class Constraint(enum.Enum):
    NONE = "none"
    SCORE_NEGATIVE = "score-negative"
    ADV_STRADDLE = "adv-straddle"
    ADV_SUP_NEGATIVE = "adv-sup-negative"


class OracleInfeasibleError(ValueError):
    """The constrained hypothesis set is empty for the given point."""


def _interval_risk(loss: MarginLoss, t, lo, hi):
    """t*Phi(lo) + (1-t)*Phi(-hi): the worst-case conditional risk of a
    score interval [lo, hi], and the conditional risk of u at lo = hi = u.
    Scalars or broadcastable arrays."""
    return t * eval_margin_loss(loss, lo) + (1.0 - t) * eval_margin_loss(loss, -hi)


def _weighted(w, v):
    """w*v, taken as 0 where w = 0 (v may be infinite there)."""
    return np.where(w > 0.0, w * v, 0.0)


def _abs_log_odds(t):
    """|log(t/(1-t))|; inf at t in {0, 1}, where only s = inf attains it."""
    return np.abs(np.log(t / (1.0 - t)))


def min_risk_symmetric(loss: MarginLoss, s, t):
    """Infimum of the conditional risk over scores in [-s, s] (s may be +inf).

    s and t broadcast; a scalar call returns a float.  Each family with a
    constrained branch picks it by one ``np.where``: the unconstrained
    minimizer (half the log-odds for the exponential loss, the log-odds for
    the logistic, 2t - 1 for the quadratic) is attainable or it is not.  Both
    branches are evaluated, so the one not picked may overflow unseen.

    For the rho-margin, hinge and sigmoid losses this is also the minimal
    worst-case conditional risk when s is the class's best worst-case score
    (which may be negative)."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    tmax, tmin = np.maximum(t, 1.0 - t), np.minimum(t, 1.0 - t)
    fam = loss.family
    with np.errstate(all="ignore"):
        if fam is LossFamily.HINGE:
            out = 1.0 - np.abs(2.0 * t - 1.0) * np.minimum(s, 1.0)
        elif fam is LossFamily.LOGISTIC:
            entropy = 0.0 - _weighted(t, np.log2(t)) - _weighted(1.0 - t, np.log2(1.0 - t))
            clipped = tmax * np.log2(1.0 + np.exp(-s)) + _weighted(tmin, np.log2(1.0 + np.exp(s)))
            out = np.where(_abs_log_odds(t) <= s, entropy, clipped)
        elif fam is LossFamily.EXPONENTIAL:
            clipped = tmax * np.exp(-s) + _weighted(tmin, np.exp(s))
            out = np.where(0.5 * _abs_log_odds(t) <= s, 2.0 * np.sqrt(t * (1.0 - t)), clipped)
        elif fam is LossFamily.QUADRATIC:
            clipped = tmax * (1.0 - s) ** 2 + tmin * (1.0 + s) ** 2
            out = np.where(np.abs(2.0 * t - 1.0) <= s, 4.0 * t * (1.0 - t), clipped)
        elif fam is LossFamily.SIGMOID:
            out = 1.0 - np.abs(1.0 - 2.0 * t) * np.tanh(loss.k * s)
        elif fam is LossFamily.RHO_MARGIN:
            out = tmin + tmax * (1.0 - np.minimum(s, loss.rho) / loss.rho)
        else:
            raise ValueError(f"unknown loss family {fam!r}")
    return float(out) if np.ndim(out) == 0 else out


def _min_risk(loss: MarginLoss, spec: HypothesisSpec):
    """f(|x|, t): the closed-form minimal conditional risk over the class
    (gamma = 0), on arrays of |x| and t that broadcast."""
    if spec.adversarial:
        raise ValueError("spec has gamma > 0; use min_conditional_risk_adversarial for worst-case losses")
    return lambda x_abs, t: min_risk_symmetric(loss, spec.score_bound(x_abs), t)


def min_conditional_risk(loss: MarginLoss, spec: HypothesisSpec, point: ConditionalPoint) -> float:
    """Closed-form minimal conditional risk over the class at a point (gamma = 0)."""
    return _min_risk(loss, spec)(point.x_norm_p, point.t)


def _adversarial_bracket(loss: MarginLoss, spec: HypothesisSpec):
    """f(|x|, t) -> (lo, hi): ``min_conditional_risk_adversarial``'s bracket
    on arrays of |x| and t that broadcast.  The class and loss are checked
    here, once, not at every point."""
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

    exact = fam is LossFamily.RHO_MARGIN and spec.cls is HypothesisClass.LINEAR

    def bracket(x_abs, t):
        # Rho-margin: exact given the class's best worst-case score, which the
        # linear class attains exactly; the ReLU class brackets it.  Hinge /
        # sigmoid: the lower bound decouples the two worst-case scores.  Every
        # upper bound takes the bias-only witness (reach margin_scale).
        lo = min_risk_symmetric(loss, attainable_adversarial_range(spec, x_abs)[1], t)
        return lo, lo if exact else min_risk_symmetric(loss, spec.margin_scale(), t)

    return bracket


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
    return _adversarial_bracket(loss, spec)(point.x_norm_p, point.t)


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
    of the open constraint).  gamma > 0 (linear class, finite 2W, 2B): minimizes
    the worst-case conditional risk over a uniform (w, b) grid, with the
    requested case constraint applied to the worst-case score interval.

    Accuracy is O(1/grid_n); the default 4001 keeps the error within 2e-3
    for the parameter ranges used in the verification suite.  Odd grid_n
    places 0 on the grid.  Both grids are pruned by exact block bounds: only
    blocks of cells that could hold a smaller value than the best cell found
    are evaluated, and the result is the whole grid's minimum, bit for bit.
    The (w, b) grid is bounded a tile of 16 blocks at a time first, and only
    the tiles that could hold a smaller value are bounded block by block;
    for the logistic loss, which steps up by an ulp in places, this is exact
    when each of |x|*W, B and gamma*W is 0 or above ~1e-12.  Score grids of
    at most 128 cells are evaluated whole.
    The score grid is the one-grid case of a batched kernel, which the
    oracle-check rows call once per instance with all of its grids.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if spec.adversarial:
        if constraint is Constraint.SCORE_NEGATIVE:
            raise ValueError("SCORE_NEGATIVE applies to the non-adversarial oracle only")
        if spec.cls is not HypothesisClass.LINEAR:
            raise ValueError("the adversarial oracle enumerates linear hypotheses only")
        for name, budget in (("W", spec.W), ("B", spec.B)):
            if not budget <= np.finfo(float).max / 2.0:  # else np.linspace(-budget, budget) steps by inf
                raise ValueError(f"the adversarial oracle needs a finite {name} and 2{name}, got {name}={budget!r}")
        return _adversarial_grid_inf(loss, spec, point, constraint, grid_n)
    if constraint in (Constraint.ADV_STRADDLE, Constraint.ADV_SUP_NEGATIVE):
        raise ValueError("adversarial constraints require a spec with gamma > 0")
    lo, hi = _score_ranges(spec, point.x_norm_p, constraint)
    return float(_score_grids_inf(loss, point.t, lo, hi, grid_n)[0])


# Columns of the (w, b) grid, or cells of a score grid, per block: the unit
# that both oracles bound and skip.  Rows of the (w, b) grid per tile, the
# unit that its oracle bounds first; taller tiles bound more loosely, so that
# more of them are cut into blocks.  The most blocks, or tiles, either oracle
# evaluates per batch, which keeps a batch's temporaries within 64 KB each.
_ADV_BLOCK = 64
_ADV_TILE = 16
_ADV_CHUNK = 128


def _pruned_minima(bounds, blocks_min, best=None):
    """Least cell of each group of blocks, skipping the blocks that cannot
    hold it; bit for bit the minimum over all of the group's cells, or over
    those cells and ``best``, a starting value per group, if it is given.

    bounds[k, j] is no more than any computed cell of block j of group k;
    ``blocks_min(flat, best)`` returns the least cell of each block
    flat = k*n_blocks + j, and may skip the cells that cannot go below best,
    its groups' best so far.  Without a starting best, each group's block of
    least bound is evaluated first.  Then the blocks whose bound is strictly
    below their group's best so far are evaluated, in ascending bound order
    and ``_ADV_CHUNK`` blocks per batch.  bounds is overwritten."""
    groups, n_blocks = np.arange(len(bounds)), bounds.shape[1]
    if best is None:
        least = np.argmin(bounds, axis=1)
        best = blocks_min(groups * n_blocks + least, np.full(len(groups), math.inf))
        bounds[groups, least] = math.inf
    else:
        best = np.array(best, dtype=float)
    # strict: minima of flat losses are shared by many blocks, and a block
    # whose bound ties its group's best cannot hold a smaller one
    todo = np.flatnonzero(bounds < best[:, None])
    bounds = bounds.ravel()
    todo = todo[np.argsort(bounds[todo])]
    while len(todo):
        batch, todo = todo[:_ADV_CHUNK], todo[_ADV_CHUNK:]
        batch = batch[bounds[batch] < best[batch // n_blocks]]
        if len(batch):
            owners = batch // n_blocks
            np.minimum.at(best, owners, blocks_min(batch, best[owners]))
        else:  # bounds ascend: what is left can only serve groups whose best is above it
            todo = todo[bounds[todo] < best[todo // n_blocks]]
    return best


def _score_ranges(spec, x_abs, constraint):
    """(lo, hi) of ``brute_force_inf``'s score grids (gamma = 0) at input
    norms x_abs, elementwise for an array: the attainable scores [-s, s],
    with s capped at ``_ALL_SCORE_CAP`` wherever it exceeds it (the
    unbounded class, an infinite bias, or a finite range so wide that its
    grid would step past every minimizer, or its width 2s overflow), and cut
    to [-s, 0] under ``SCORE_NEGATIVE``.  The capped range is attainable, so
    the grid minimum still bounds the infimum from above."""
    s = np.asarray(spec.score_bound(x_abs), dtype=float)
    s = np.broadcast_to(np.where(s > _ALL_SCORE_CAP, _ALL_SCORE_CAP, s), np.shape(x_abs))
    if constraint is Constraint.SCORE_NEGATIVE:
        if np.any(-s >= 0.0):
            raise OracleInfeasibleError("no attainable strictly negative score at this point")
        return -s, np.zeros_like(s)
    return -s, s


def _linspace_cells(lo, hi, idx, grid_n):
    """Cells idx of linspace(lo, hi, grid_n), with np.linspace's arithmetic:
    i*step + lo, step = (hi - lo)/(grid_n - 1); (i/(grid_n - 1))*(hi - lo) + lo
    where step rounds to 0; and hi last.  lo, hi and idx broadcast."""
    div = grid_n - 1
    delta = hi - lo
    step = delta / div
    u = idx * step
    if np.any(step == 0.0):
        u = np.where(step == 0.0, idx / div * delta, u)
    u += lo
    return np.where(idx == div, hi, u)


def _score_grids_inf(loss, t, lo, hi, grid_n):
    """Minimum of t[k]*Phi(u) + (1-t[k])*Phi(-u) over each grid
    u = linspace(lo[k], hi[k], grid_n), bit for bit; t, lo and hi are 1-D
    and broadcast.

    Each grid is non-decreasing and is cut into blocks of ``_ADV_BLOCK``
    cells.  Every margin loss is non-increasing in floating point (the
    logistic one only between inputs more than a few ulps apart), so no cell
    of a block has a computed risk below ``_interval_risk`` at (its last
    cell, its first): the block's bound.  ``_pruned_minima`` picks the
    blocks to evaluate, by the rule of the (w, b) oracle.  Grids of at most
    two blocks are evaluated whole, in one pass: there the bound pass and
    the first block alone cost as many loss calls as the whole grid."""
    t, lo, hi = np.broadcast_arrays(*np.atleast_1d(t, lo, hi))
    width = min(_ADV_BLOCK, grid_n)
    first = np.arange(0, grid_n, width)
    n_blocks = len(first)
    every = np.arange(len(lo))

    def cells(grids, idx):
        return _linspace_cells(lo[grids, None], hi[grids, None], idx, grid_n)

    if n_blocks <= 2:
        u = cells(every, np.arange(grid_n))
        return _interval_risk(loss, t[:, None], u, u).min(axis=1)

    def blocks_min(flat, best):
        grids, blocks = np.divmod(flat, n_blocks)
        u = cells(grids, np.minimum(first[blocks, None] + np.arange(width), grid_n - 1))  # ragged last block: repeats
        return _interval_risk(loss, t[grids, None], u, u).min(axis=1)

    u_first = cells(every, first)
    u_last = cells(every, np.minimum(first + width - 1, grid_n - 1))
    return _pruned_minima(_interval_risk(loss, t[:, None], u_last, u_first), blocks_min)


def _adversarial_grid_inf(loss, spec, point, constraint, grid_n):
    """Minimum of the worst-case conditional risk over the (w, b) grid.

    The grid is cut into tiles of ``_ADV_TILE`` w-rows by ``_ADV_BLOCK``
    b-columns, and each row of a tile is a block.  A cell's worst-case scores
    are lo = fl(fl(wx + b) - spread) and hi = fl(fl(wx + b) + spread), and
    IEEE rounding is monotone, so over a tile lo is at most
    fl(fl(max wx + b_last) - min spread) and hi at least
    fl(fl(min wx + b_first) + min spread); every margin loss is
    non-increasing in floating point, so no cell of a tile has a computed
    risk below ``_interval_risk`` at that (lo, hi): the tile's bound.  A
    block's bound is the one-row case.  The logistic loss is non-increasing
    only between inputs more than a few ulps apart.  A cell's lo is below
    the tile's by the sum of its distances in wx, b and spread from the
    extremes, each 0 or a multiple of a grid step (x*dw, db or gamma*dw),
    and so for hi; for the logistic loss exactness therefore needs each of
    x*W, B and gamma*W to be 0 or above ~1e-12.  Only tiles whose bound is
    strictly below the best cell found so far are cut into their blocks,
    only those blocks whose bound is too are evaluated, cell by cell with
    the arithmetic of a whole-grid evaluation, and the minimum is therefore
    the grid's, bit for bit."""
    t, x, gam = point.t, point.x_norm_p, spec.gamma
    reach, _ = attainable_adversarial_range(spec, x)
    if constraint is Constraint.ADV_SUP_NEGATIVE and reach <= 0.0:
        raise OracleInfeasibleError("no hypothesis has a strictly negative worst-case score here")
    w_grid = np.linspace(-spec.W, spec.W, grid_n)
    b_grid = np.linspace(-spec.B, spec.B, grid_n)
    wx, spread = w_grid * x, gam * np.abs(w_grid)
    width, height = min(_ADV_BLOCK, grid_n), min(_ADV_TILE, grid_n)
    first = np.arange(0, grid_n, width)
    last = np.minimum(first + width - 1, grid_n - 1)
    b_first, b_last = b_grid[first], b_grid[last]
    n_blocks = len(first)

    def bound(wx_min, wx_max, spread_min, spread_max, blocks):
        """No more than the computed risk of any feasible cell of the block
        columns on rows whose wx and spread lie in the given ranges; inf
        where the end columns rule out every feasible cell."""
        base_least, base_most = wx_min + b_first[blocks], wx_max + b_last[blocks]
        lo_most, hi_least = base_most - spread_min, base_least + spread_min
        out = _interval_risk(loss, t, lo_most, hi_least)
        if constraint is Constraint.ADV_STRADDLE:
            out[(base_least - spread_max > 0.0) | (base_most + spread_max < 0.0)] = math.inf
        elif constraint is Constraint.ADV_SUP_NEGATIVE:
            out[hi_least > 0.0] = math.inf
        return out

    def row_blocks_min(flat, best):
        rows, blocks = np.divmod(flat, n_blocks)
        cols = np.minimum(first[blocks, None] + np.arange(width), grid_n - 1)  # ragged last block: repeats
        base = wx[rows, None] + b_grid[cols]
        lo, hi = base - spread[rows, None], base + spread[rows, None]
        risk = _interval_risk(loss, t, lo, hi)
        if constraint is Constraint.ADV_STRADDLE:
            risk[(lo > 0.0) | (hi < 0.0)] = math.inf
        elif constraint is Constraint.ADV_SUP_NEGATIVE:
            risk[hi > 0.0] = math.inf  # closure of the open constraint
        return risk.min(axis=1)

    def tiles_min(flat, best):
        row_tiles, blocks = np.divmod(flat, n_blocks)
        rows = np.minimum(row_tiles[:, None] * height + np.arange(height), grid_n - 1)  # ragged last tile: repeats
        row_wx, row_spread = wx[rows], spread[rows]
        block_bounds = bound(row_wx, row_wx, row_spread, row_spread, blocks[:, None])
        flat_blocks = rows * n_blocks + blocks[:, None]
        return _pruned_minima(block_bounds, lambda k, b: row_blocks_min(flat_blocks.ravel()[k], b), best)

    tops = np.arange(0, grid_n, height)
    extremes = [f.reduceat(v, tops)[:, None] for f, v in ((np.minimum, wx), (np.maximum, wx),
                                                          (np.minimum, spread), (np.maximum, spread))]
    best = float(_pruned_minima(bound(*extremes, np.arange(n_blocks)).reshape(1, -1), tiles_min)[0])
    if not math.isfinite(best):
        raise OracleInfeasibleError(f"constraint {constraint.value} is infeasible on the grid")
    return best
