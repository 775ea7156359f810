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
over the ball, because every family above is non-increasing;
``bounds._score_kernel`` computes both indicators and the margin at which
every loss is taken, for every risk, bound and sweep.

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

    ``bounds._score_kernel`` applies the same convention on arrays, and in
    its robust case counts a worst-case score of exactly 0 as an error.
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

