"""Margin-based surrogate losses and their worst-case counterparts.

Six margin losses are supported, each evaluated pointwise at the margin
alpha = y*h(x):

    hinge        max{0, 1 - a}
    logistic     log2(1 + e^-a)
    exponential  e^-a
    quadratic    (1 - a)^2 for a <= 1, else 0
    sigmoid      1 - tanh(k*a),            finite k > 0
    rho-margin   min{1, max{0, 1 - a/rho}}, finite rho > 0

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
    "eval_margin_loss",
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
        if self.family is LossFamily.SIGMOID and not 0.0 < self.k < math.inf:
            raise ValueError(f"sigmoid loss requires a finite k > 0, got k={self.k}")
        if self.family is LossFamily.RHO_MARGIN and not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho-margin loss requires a finite rho > 0, got rho={self.rho}")

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


def eval_margin_loss(loss: MarginLoss, alpha, out=None):
    """Evaluate the margin loss at alpha (scalar or ndarray). Result is >= 0.

    With ``out``, a float64 array of alpha's shape (alpha itself included),
    the values are computed in place there and out is returned; without it
    the same steps run on a fresh array.
    """
    a = np.asarray(alpha, dtype=float)
    v = np.empty(a.shape) if out is None else out
    fam = loss.family
    if fam is LossFamily.HINGE:
        np.maximum(0.0, np.subtract(1.0, a, out=v), out=v)
    elif fam is LossFamily.LOGISTIC:
        # log2(1 + e^-a), through logaddexp for stability at large |a|
        np.divide(np.logaddexp(0.0, np.negative(a, out=v), out=v), _LN2, out=v)
    elif fam is LossFamily.EXPONENTIAL:
        np.exp(np.negative(a, out=v), out=v)
    elif fam is LossFamily.QUADRATIC:
        # (1 - a)^2 where a <= 1, else 0: fmin puts a > 1 and NaN at 1
        np.square(np.subtract(1.0, np.fmin(a, 1.0, out=v), out=v), out=v)
    elif fam is LossFamily.SIGMOID:
        np.subtract(1.0, np.tanh(np.multiply(loss.k, a, out=v), out=v), out=v)
    elif fam is LossFamily.RHO_MARGIN:
        np.clip(np.subtract(1.0, np.divide(a, loss.rho, out=v), out=v), 0.0, 1.0, out=v)
    else:
        raise ValueError(f"unknown loss family {fam!r}")
    return v if out is not None or isinstance(alpha, np.ndarray) else float(v)


def check_truncation_eps(eps: float) -> float:
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"truncation eps must lie in [0, 1], got {eps}")
    return eps


class ZeroOneLoss:
    """Marker for the zero-one target loss (robust where gamma > 0)."""

    def label(self) -> str:
        return "zero-one"

    def __repr__(self) -> str:
        return "ZERO_ONE"


ZERO_ONE = ZeroOneLoss()

