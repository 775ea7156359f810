"""Margin-based surrogate losses and their worst-case counterparts.

Six margin losses are supported, each evaluated pointwise at the margin
alpha = y*h(x):

    hinge        max{0, 1 - a}
    logistic     log2(1 + e^-a)
    exponential  e^-a
    quadratic    (1 - a)^2 for a <= 1, else 0
    sigmoid      1 - tanh(k*a),            k > 0
    rho-margin   min{1, max{0, 1 - a/rho}}, rho > 0

The classification target is the zero-one loss with the convention
sign(0) = +1, and its robust counterpart, which charges an error whenever
the score can be driven to the wrong side anywhere in a perturbation ball.
Worst-case (supremum) surrogate values only require the extreme scores of h
over the ball, because every family above is non-increasing.

All evaluators accept floats or numpy arrays and are pure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossFamily",
    "MarginLoss",
    "hinge",
    "logistic",
    "exponential",
    "quadratic",
    "sigmoid",
    "rho_margin",
    "sign",
    "eval_margin_loss",
    "eval_zero_one",
    "eval_sup_loss",
    "eval_adversarial_zero_one",
    "truncate",
    "check_truncation_eps",
]

_LN2 = math.log(2.0)


class LossFamily(enum.Enum):
    HINGE = "hinge"
    LOGISTIC = "logistic"
    EXPONENTIAL = "exponential"
    QUADRATIC = "quadratic"
    SIGMOID = "sigmoid"
    RHO_MARGIN = "rho-margin"


#: Families that are convex in the margin argument.
CONVEX_FAMILIES = frozenset(
    {LossFamily.HINGE, LossFamily.LOGISTIC, LossFamily.EXPONENTIAL, LossFamily.QUADRATIC}
)


@dataclass(frozen=True)
class MarginLoss:
    """A tagged margin loss; ``k`` is read only for sigmoid, ``rho`` only for rho-margin."""

    family: LossFamily
    k: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        if self.family is LossFamily.SIGMOID and not self.k > 0:
            raise ValueError(f"sigmoid loss requires k > 0, got k={self.k}")
        if self.family is LossFamily.RHO_MARGIN and not self.rho > 0:
            raise ValueError(f"rho-margin loss requires rho > 0, got rho={self.rho}")

    @property
    def is_convex(self) -> bool:
        return self.family in CONVEX_FAMILIES

    def label(self) -> str:
        if self.family is LossFamily.SIGMOID:
            return f"sigmoid(k={self.k:g})"
        if self.family is LossFamily.RHO_MARGIN:
            return f"rho-margin(rho={self.rho:g})"
        return self.family.value


def hinge() -> MarginLoss:
    return MarginLoss(LossFamily.HINGE)


def logistic() -> MarginLoss:
    return MarginLoss(LossFamily.LOGISTIC)


def exponential() -> MarginLoss:
    return MarginLoss(LossFamily.EXPONENTIAL)


def quadratic() -> MarginLoss:
    return MarginLoss(LossFamily.QUADRATIC)


def sigmoid(k: float = 1.0) -> MarginLoss:
    return MarginLoss(LossFamily.SIGMOID, k=k)


def rho_margin(rho: float = 1.0) -> MarginLoss:
    return MarginLoss(LossFamily.RHO_MARGIN, rho=rho)


def sign(alpha: float) -> int:
    """Classification sign with the tie broken toward +1: sign(0) = +1.

    The scalar decisions (``eval_zero_one``,
    ``conditional.conditional_risk_zero_one``) route through here.  The
    array paths compare scores with 0 on their own: ``bounds._score_kernel``
    and ``bounds._error_mass`` let a score of 0 predict +1;
    ``eval_adversarial_zero_one`` and the kernel's robust case count a
    worst-case score of 0 as an error; ``conditional._adversarial_grid_inf``
    takes the closures of its sign constraints, so 0 is on both sides.
    """
    return 1 if alpha >= 0 else -1


def eval_margin_loss(loss: MarginLoss, alpha):
    """Evaluate the margin loss at alpha (scalar or ndarray). Result is >= 0."""
    a = np.asarray(alpha, dtype=float)
    fam = loss.family
    if fam is LossFamily.HINGE:
        out = np.maximum(0.0, 1.0 - a)
    elif fam is LossFamily.LOGISTIC:
        # log2(1 + e^-a), through logaddexp for stability at large |a|
        out = np.logaddexp(0.0, -a) / _LN2
    elif fam is LossFamily.EXPONENTIAL:
        out = np.exp(-a)
    elif fam is LossFamily.QUADRATIC:
        out = np.where(a <= 1.0, (1.0 - a) ** 2, 0.0)
    elif fam is LossFamily.SIGMOID:
        out = 1.0 - np.tanh(loss.k * a)
    elif fam is LossFamily.RHO_MARGIN:
        out = np.clip(1.0 - a / loss.rho, 0.0, 1.0)
    else:
        raise ValueError(f"unknown loss family {fam!r}")
    return out if isinstance(alpha, np.ndarray) else float(out)


def eval_zero_one(h_value: float, y: int) -> int:
    """Zero-one loss of a score against label y in {-1, +1}; h(x) = 0 predicts +1."""
    _check_label(y)
    return 0 if sign(h_value) == y else 1


def eval_sup_loss(loss: MarginLoss, y, h_lo, h_hi):
    """Worst-case margin loss over a score interval [h_lo, h_hi].

    h_lo and h_hi must be the exact extremes of h over the perturbation ball;
    since the loss is non-increasing, the supremum is Phi(h_lo) for y = +1 and
    Phi(-h_hi) for y = -1.  Accepts scalars or broadcastable arrays.
    """
    h_lo_a = np.asarray(h_lo, dtype=float)
    h_hi_a = np.asarray(h_hi, dtype=float)
    if np.any(h_lo_a > h_hi_a):
        raise ValueError("h_lo must not exceed h_hi")
    y_a = np.asarray(y)
    out = np.where(y_a > 0, eval_margin_loss(loss, h_lo_a), eval_margin_loss(loss, -h_hi_a))
    if np.isscalar(y) and np.isscalar(h_lo) and np.isscalar(h_hi):
        return float(out)
    return out


def eval_adversarial_zero_one(h_lo, h_hi, y):
    """Robust zero-one loss: 1 iff some score in [h_lo, h_hi] misclassifies y."""
    h_lo_a = np.asarray(h_lo, dtype=float)
    h_hi_a = np.asarray(h_hi, dtype=float)
    if np.any(h_lo_a > h_hi_a):
        raise ValueError("h_lo must not exceed h_hi")
    y_a = np.asarray(y)
    out = np.where(y_a > 0, h_lo_a <= 0.0, h_hi_a >= 0.0).astype(int)
    if np.isscalar(y) and np.isscalar(h_lo) and np.isscalar(h_hi):
        return int(out)
    return out


def truncate(t, eps: float = 0.0):
    """eps-truncation: t if t > eps, else 0 (strict inequality)."""
    check_truncation_eps(eps)
    t_a = np.asarray(t, dtype=float)
    out = np.where(t_a > eps, t_a, 0.0)
    return out if isinstance(t, np.ndarray) else float(out)


def check_truncation_eps(eps: float) -> float:
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"truncation eps must lie in [0, 1], got {eps}")
    return eps


class ZeroOneLoss:
    """Marker for the zero-one target loss (robust variant selected by context)."""

    def label(self) -> str:
        return "zero-one"

    def __repr__(self) -> str:
        return "ZERO_ONE"


ZERO_ONE = ZeroOneLoss()


def _check_label(y: int) -> None:
    if y not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {y!r}")
