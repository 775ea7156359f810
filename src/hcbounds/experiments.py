"""Scripted simulation sweeps and plot-ready curve tables.

Two sweeps reproduce the tightness simulations at desk scale: a
non-adversarial sweep comparing the zero-one excess of h(x) = -5x against
quadratic/logistic/exponential surrogate excesses on the mirror-symmetric
atom + truncated-normal mixture, and an adversarial sweep comparing the
robust zero-one risk against worst-case rho-margin/hinge/sigmoid risks on the
shifted mixture.  Both distributions put all conditional probabilities at 0
or 1, so the noise parameter is beta = 1/2 and every bound reduces to a
multiplier-one comparison whose slack must shrink as sigma -> 0.

All rows are produced from seeded counter-based sampling in a fixed order, so
a rerun with an identical config is bit-identical.  Writers emit CSV (12
significant digits) and JSON (full-precision round-trip floats).
"""

from __future__ import annotations

import csv
import json
import math
import threading
from dataclasses import dataclass

import numpy as np

from .bounds import _holds, _leaf_totals, _loss_values, _score_kernel, _squares_sum
from .distributions import _SAMPLE_BLOCK, _map_sample_blocks, _require_integer, sect7_adversarial, sect7_nonadversarial
from .hypotheses import HypothesisClass, HypothesisSpec
from .losses import (
    ZERO_ONE,
    LossFamily,
    eval_margin_loss,
    exponential,
    hinge,
    logistic,
    quadratic,
    rho_margin,
    sigmoid,
)
from .transforms import transform, transform_inverse

__all__ = [
    "SweepConfig",
    "run_nonadversarial_sweep",
    "run_adversarial_sweep",
    "emit_transform_curves",
    "write_rows_csv",
    "write_rows_json",
]

_DEFAULT_SIGMAS = (0.2, 0.1, 0.05, 0.02, 0.01)
# Massart noise parameter of both sweep distributions: every conditional
# probability is 0 or 1, so |eta - 1/2| = 1/2 everywhere.
_BETA = 0.5


@dataclass(frozen=True)
class SweepConfig:
    sigmas: tuple = _DEFAULT_SIGMAS
    n_samples: int = 10**6
    seed: int = 0
    w: float = -5.0
    b: float = 0.0
    gamma: float = 0.1

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigmas)
        object.__setattr__(self, "sigmas", sig)
        if any(s2 >= s1 for s1, s2 in zip(sig, sig[1:])):
            raise ValueError("sigmas must be strictly decreasing toward 0")
        if any(not 0.0 < s < 1.0 for s in sig):
            raise ValueError("each sigma must lie in (0, 1)")
        _require_integer("n_samples", self.n_samples)
        _require_integer("seed", self.seed)
        if self.n_samples < 10**4:
            raise ValueError("sweeps need at least 10^4 samples per cell")
        for name in ("w", "b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"the sweeps' h needs a finite {name}, got {name} = {getattr(self, name)}")


def _cell_seed(seed: int, index: int) -> int:
    return (int(seed) ^ ((index + 1) * 0x9E3779B97F4A7C15)) % 2**64


def run_nonadversarial_sweep(cfg: SweepConfig):
    """Rows {sigma, loss, lhs, rhs, stderrs, slack, holds} for the standard sweep.

    lhs is the empirical zero-one risk of h (its minimal risk vanishes on
    these distributions), rhs the surrogate risk scaled by 2*beta/T(2*beta),
    which is exactly 1 at beta = 1/2.  The sigma cells run one after
    another, in sigma order, each spreading its sampling blocks and its
    reduction over ``thread_map``'s pool (``_run_cells``).
    """
    losses = (quadratic(), logistic(), exponential())
    spec_all = HypothesisSpec(HypothesisClass.ALL)
    mults = [2.0 * _BETA / float(transform(loss, spec_all)(2.0 * _BETA)) for loss in losses]
    return _run_cells(cfg, "sect7-nonadv", losses, [{"multiplier": m} for m in mults])


def run_adversarial_sweep(cfg: SweepConfig):
    """Rows for the adversarial sweep: absolute robust zero-one risk of h
    against the absolute worst-case surrogate risk (the reduced beta = 1/2
    form of the bounds).  Cells run as in ``run_nonadversarial_sweep``, one
    at a time."""
    if not 0.0 < cfg.gamma < 1.0:
        raise ValueError("adversarial sweep needs gamma in (0, 1)")
    return _run_cells(cfg, "sect7-adv", (rho_margin(1.0), hinge(), sigmoid(1.0)), [{"gamma": cfg.gamma}] * 3)


def _run_cells(cfg, experiment, losses, extras):
    """The rows of both sweeps: one cell per sigma, run one after another in
    sigma order on the calling thread, each spreading its work over
    ``thread_map``.

    One n-sized float array, the margins, and the zero-one errors as bools
    are allocated per call and serve every cell, so one cell's arrays are
    alive at a time.  A cell draws each block of its sample's positions
    into the margins' array and scores it there, in place.  Three passes
    over ``_leaf_totals``' leaves then reduce them, each leaf's losses
    written into a leaf-sized buffer of its worker: the first sums the
    errors and every loss but the last; the second sums their squared
    deviations from the mean, and evaluates the last loss in place over the
    margins and sums it; the third sums the last loss's squared deviations.
    The last is the logistic or sigmoid loss, whose kernel costs the most,
    so it is evaluated once.  Each mean and stderr is ``np.mean`` and
    ``np.std(ddof=1) / sqrt(n)`` of the values, bit for bit.  extras are
    each loss's own row fields, and a "multiplier" there scales its rhs."""
    adversarial = experiment == "sect7-adv"
    gamma = cfg.gamma if adversarial else 0.0
    n = cfg.n_samples
    costly = (LossFamily.LOGISTIC, LossFamily.SIGMOID)
    order = sorted(range(len(losses)), key=lambda k: losses[k].family in costly)  # reduction order
    early, last = [ZERO_ONE] + [losses[k] for k in order[:-1]], losses[order[-1]]
    arg, errs = np.empty(n), np.empty(n, dtype=bool)

    def cell(i):
        sigma, seed = cfg.sigmas[i], _cell_seed(cfg.seed, i)
        dist = sect7_adversarial(sigma, gamma) if adversarial else sect7_nonadversarial(sigma)

        def score(start, xs, ys, spare):
            with np.errstate(over="ignore"):  # per thread, as ``_leaf_totals``' leaves: a score past 1.8e308 is inf
                err, a = _score_kernel(cfg.w, cfg.b, xs, ys, gamma, out=xs)  # xs is arg's slice
            errs[start : start + len(a)] = err

        _map_sample_blocks(dist, n, seed, score, into=arg)
        held = threading.local()  # each worker's leaf buffer, for this cell

        def values(loss, a, b):
            if not hasattr(held, "buf"):
                held.buf = np.empty(min(_SAMPLE_BLOCK, n))
            return _loss_values(loss, errs[a:b], arg[a:b], held.buf[: b - a])

        def second(a, b):
            m2s = [_squares_sum(values(loss, a, b), mean) for loss, mean in zip(early, means)]
            return m2s + [eval_margin_loss(last, arg[a:b], arg[a:b]).sum()]  # the margins' last use

        means = [total / n for total in _leaf_totals(n, lambda a, b: [values(loss, a, b).sum() for loss in early])]
        *m2s, total = _leaf_totals(n, second)
        means.append(total / n)
        m2s += _leaf_totals(n, lambda a, b: [_squares_sum(arg[a:b], means[-1])])
        # an overflowed loss's mean is inf and its M2 inf - inf: its stderr reads inf, as ``_mc_risks``' does
        (lhs, se_lhs), *stats = [(float(m), math.sqrt(m2 / (n - 1)) / math.sqrt(n) if math.isfinite(m) else math.inf)
                                 for m, m2 in zip(means, m2s)]
        stats = dict(zip(order, stats))
        rows = []
        for k, (loss, extra) in enumerate(zip(losses, extras)):
            mean, se = stats[k]
            if not (math.isfinite(mean) and math.isfinite(se)):
                raise ValueError(
                    f"the {loss.label()} risk of h(x) = {cfg.w}*x + {cfg.b} at sigma {sigma} is not finite "
                    f"(mean {mean}, stderr {se}); a smaller |w| or |b| keeps the loss finite"
                )
            mult = extra.get("multiplier", 1.0)
            rhs, se_rhs = mult * mean, mult * se
            rows.append(
                {
                    "experiment": experiment,
                    "sigma": sigma,
                    "loss": ("sup-" if adversarial else "") + loss.label(),
                    "n": n,
                    "seed": seed,
                    **extra,
                    "lhs": lhs,
                    "rhs": rhs,
                    "stderr_lhs": se_lhs,
                    "stderr_rhs": se_rhs,
                    "slack": rhs - lhs,
                    "holds": _holds(lhs, rhs, se_lhs, se_rhs),
                    # rho-margin(1) = clip(1 - m, 0, 1) <= max(0, 1 - m) = hinge at every margin m, +-inf
                    # included, and no margin is NaN (finite w and b, |x| <= 1; an overflow gives +-inf)
                    **({"frac_rho_rhs_le_hinge": 1.0} if adversarial else {}),
                }
            )
        return rows

    return [row for i in range(len(cfg.sigmas)) for row in cell(i)]


def emit_transform_curves(spec: HypothesisSpec = None, grid_n: int = 201):
    """Plot-ready samples for the six margin losses: each loss on [-2, 2],
    its transform on [0, 1], and the materialized inverse on [0, T(1)]."""
    if grid_n < 100:
        raise ValueError("need grid_n >= 100 for smooth curves")
    if spec is None:
        spec = HypothesisSpec(HypothesisClass.LINEAR, W=1.0, B=0.8)
    rows = []
    alphas = np.linspace(-2.0, 2.0, grid_n)
    ts = np.linspace(0.0, 1.0, grid_n)
    for loss in (hinge(), logistic(), exponential(), quadratic(), sigmoid(1.0), rho_margin(1.0)):
        fwd = transform(loss, spec)
        args = np.linspace(0.0, fwd(1.0), grid_n)
        curves = {"surrogate": (alphas, eval_margin_loss(loss, alphas)), "transform": (ts, fwd(ts)),
                  "inverse": (args, transform_inverse(loss, spec)(args))}
        for curve, (xs, ys) in curves.items():
            rows += [{"loss": loss.label(), "curve": curve, "x": x, "y": y} for x, y in zip(xs.tolist(), ys.tolist())]
    return rows


def _fmt_csv(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_rows_csv(rows, path) -> None:
    if not rows:
        raise ValueError("no rows to write")
    cols = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt_csv(row[c]) for c in cols])


def write_rows_json(rows, path, meta=None) -> None:
    payload = {"meta": dict(meta or {}), "rows": rows}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
