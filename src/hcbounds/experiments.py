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
from dataclasses import dataclass

import numpy as np

from .bounds import _holds, _score_kernel
from .distributions import sect7_adversarial, sect7_nonadversarial, sample
from .hypotheses import HypothesisClass, HypothesisSpec
from .losses import (
    LossFamily,
    eval_margin_loss,
    exponential,
    hinge,
    logistic,
    quadratic,
    rho_margin,
    sigmoid,
)
from .conditional import thread_map
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
    losses: tuple = ()

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigmas)
        object.__setattr__(self, "sigmas", sig)
        object.__setattr__(self, "losses", tuple(self.losses))
        if any(s2 >= s1 for s1, s2 in zip(sig, sig[1:])):
            raise ValueError("sigmas must be strictly decreasing toward 0")
        if any(not 0.0 < s < 1.0 for s in sig):
            raise ValueError("each sigma must lie in (0, 1)")
        if self.n_samples < 10**4:
            raise ValueError("sweeps need at least 10^4 samples per cell")


def _cell_seed(seed: int, index: int) -> int:
    return (seed ^ ((index + 1) * 0x9E3779B97F4A7C15)) % 2**64


def _mean_se(vals: np.ndarray) -> tuple:
    n = len(vals)
    return float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(n)


def run_nonadversarial_sweep(cfg: SweepConfig):
    """Rows {sigma, loss, lhs, rhs, stderrs, slack, holds} for the standard sweep.

    lhs is the empirical zero-one risk of h (its minimal risk vanishes on
    these distributions), rhs the surrogate risk scaled by 2*beta/T(2*beta),
    which is exactly 1 at beta = 1/2.  The sigma cells run on
    ``thread_cap()`` threads; rows come back in sigma order.
    """
    losses = cfg.losses or (quadratic(), logistic(), exponential())
    allowed = {LossFamily.QUADRATIC, LossFamily.LOGISTIC, LossFamily.EXPONENTIAL}
    if any(l.family not in allowed for l in losses):
        raise ValueError("non-adversarial sweep covers quadratic/logistic/exponential")
    spec_all = HypothesisSpec(HypothesisClass.ALL)
    mults = [2.0 * _BETA / float(transform(loss, spec_all)(2.0 * _BETA)) for loss in losses]
    return _run_cells(cfg, "sect7-nonadv", losses, [{"multiplier": m} for m in mults])


def run_adversarial_sweep(cfg: SweepConfig):
    """Rows for the adversarial sweep: absolute robust zero-one risk of h
    against the absolute worst-case surrogate risk (the reduced beta = 1/2
    form of the bounds).  Cells run as in ``run_nonadversarial_sweep``."""
    losses = cfg.losses or (rho_margin(1.0), hinge(), sigmoid(1.0))
    allowed = {LossFamily.RHO_MARGIN, LossFamily.HINGE, LossFamily.SIGMOID}
    if any(l.family not in allowed for l in losses):
        raise ValueError("adversarial sweep covers sup-rho-margin/sup-hinge/sup-sigmoid")
    if not 0.0 < cfg.gamma < 1.0:
        raise ValueError("adversarial sweep needs gamma in (0, 1)")
    return _run_cells(cfg, "sect7-adv", losses, [{"gamma": cfg.gamma}] * len(losses))


def _run_cells(cfg, experiment, losses, extras):
    """The rows of both sweeps, one cell per sigma on ``thread_map``.  A cell
    scores its sample in place, then evaluates and reduces one loss at a
    time; extras are each loss's own row fields, and a "multiplier" there
    scales its rhs.  Only the first rho-margin and hinge losses' values,
    compared pointwise in the adversarial sweep, outlive their reduction."""
    adversarial = experiment == "sect7-adv"
    gamma = cfg.gamma if adversarial else 0.0
    pair = [
        next((l for l in losses if l.family is fam), None)
        for fam in (LossFamily.RHO_MARGIN, LossFamily.HINGE)
    ]

    def cell(i):
        sigma, seed = cfg.sigmas[i], _cell_seed(cfg.seed, i)
        dist = sect7_adversarial(sigma, gamma) if adversarial else sect7_nonadversarial(sigma)
        xs, ys = sample(dist, cfg.n_samples, seed)
        err, arg = _score_kernel(cfg.w, cfg.b, xs, ys, adversarial, gamma, overwrite=True)
        del xs, ys
        lhs, se_lhs = _mean_se(err.astype(float))
        del err
        rows, paired = [], {}
        for loss, extra in zip(losses, extras):
            vals = eval_margin_loss(loss, arg)
            mean, se = _mean_se(vals)
            if loss in pair:
                paired[loss] = vals
            del vals
            mult = extra.get("multiplier", 1.0)
            rhs, se_rhs = mult * mean, mult * se
            rows.append(
                {
                    "experiment": experiment,
                    "sigma": sigma,
                    "loss": ("sup-" if adversarial else "") + loss.label(),
                    "n": cfg.n_samples,
                    "seed": seed,
                    **extra,
                    "lhs": lhs,
                    "rhs": rhs,
                    "stderr_lhs": se_lhs,
                    "stderr_rhs": se_rhs,
                    "slack": rhs - lhs,
                    "holds": _holds(lhs, rhs, se_lhs, se_rhs),
                }
            )
        if adversarial:
            frac = math.nan if None in pair else float(np.mean(paired[pair[0]] <= paired[pair[1]] + 1e-12))
            for row in rows:
                row["frac_rho_rhs_le_hinge"] = frac
        return rows

    return [row for rows in thread_map(cell, range(len(cfg.sigmas))) for row in rows]


def emit_transform_curves(losses=(), spec: HypothesisSpec = None, grid_n: int = 201):
    """Plot-ready samples: each loss on [-2, 2], its transform on [0, 1], and
    the materialized inverse on [0, T(1)]."""
    if grid_n < 100:
        raise ValueError("need grid_n >= 100 for smooth curves")
    if spec is None:
        spec = HypothesisSpec(HypothesisClass.LINEAR, W=1.0, B=0.8)
    losses = losses or (hinge(), logistic(), exponential(), quadratic(), sigmoid(1.0), rho_margin(1.0))
    rows = []
    alphas = np.linspace(-2.0, 2.0, grid_n)
    ts = np.linspace(0.0, 1.0, grid_n)
    for loss in losses:
        fwd = transform(loss, spec)
        inv = transform_inverse(loss, spec)
        top = float(fwd(1.0))
        args = np.linspace(0.0, top, grid_n)
        for a in alphas:
            rows.append({"loss": loss.label(), "curve": "surrogate", "x": float(a), "y": float(eval_margin_loss(loss, float(a)))})
        for t in ts:
            rows.append({"loss": loss.label(), "curve": "transform", "x": float(t), "y": float(fwd(float(t)))})
        for s in args:
            rows.append({"loss": loss.label(), "curve": "inverse", "x": float(s), "y": float(inv(float(s)))})
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
