"""Hypothesis-class descriptors and attainable score ranges.

Inputs are scalars x in [-1, 1] (d = 1).  The paper's classes are stated
over ||x||_p <= 1 with ||w||_q <= W, and every closed form depends on x only
through ||x||_p, which is |x| at d = 1 for every p; so p plays no part here.
Three classes are modeled:

* ``ALL`` -- all measurable functions (unbounded scores).
* ``LINEAR`` -- x -> w*x + b with |w| <= W and |b| <= B.
* ``ONE_HIDDEN_RELU`` -- one-hidden-layer ReLU networks with outer l1 budget
  Lambda and the same per-unit (W, B) constraints; scores attain exactly
  +-Lambda*(W*|x| + B).

For a linear hypothesis the extreme scores over a gamma-ball are
w*x -+ gamma*|w| + b; ``bounds._score_kernel`` takes them on whole samples
and quadrature rules.  This module gives their class-level counterpart, the
supremum over the class of the ball-infimum score
(``attainable_adversarial_range``): W*max{|x|, gamma} - gamma*W + B exactly
for linear predictors, and for the ReLU class only a sandwich between
Lambda*B and Lambda*(W*max{|x|, gamma} - gamma*W + B), which is all the
bounds need.

``B = math.inf`` is an accepted sentinel and is propagated symbolically by
the transform constructors; it never enters grid arithmetic.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HypothesisClass",
    "HypothesisSpec",
    "LinearHypothesis",
    "score_range",
    "attainable_adversarial_range",
]


class HypothesisClass(enum.Enum):
    ALL = "all"
    LINEAR = "linear"
    ONE_HIDDEN_RELU = "relu"


@dataclass(frozen=True)
class HypothesisSpec:
    """Class descriptor: which hypothesis set, its norm budgets, and the
    adversarial radius (gamma = 0 means the standard, non-adversarial setting)."""

    cls: HypothesisClass
    W: float = 1.0
    B: float = 1.0
    Lambda: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.cls is not HypothesisClass.ALL:
            if not (self.W >= 0 and math.isfinite(self.W)):
                raise ValueError(f"W must be finite and >= 0, got {self.W}")
            if not (self.B >= 0):
                raise ValueError(f"B must be >= 0 (math.inf allowed), got {self.B}")
        if self.cls is HypothesisClass.ONE_HIDDEN_RELU and not (
            self.Lambda >= 0 and math.isfinite(self.Lambda)
        ):
            raise ValueError(f"Lambda must be finite and >= 0, got {self.Lambda}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")

    @property
    def adversarial(self) -> bool:
        return self.gamma > 0.0

    def score_bound(self, x_norm_p):
        """Largest attainable |h(x)| at a point with the given input norm
        (elementwise for an array of norms)."""
        _check_x_norm(x_norm_p)
        if self.cls is HypothesisClass.ALL:
            return math.inf
        if self.cls is HypothesisClass.LINEAR:
            return self.W * x_norm_p + self.B
        return self.Lambda * (self.W * x_norm_p + self.B)

    def margin_scale(self) -> float:
        """The bias budget that drives the estimation-error transforms:
        B for linear, Lambda*B for ReLU networks, +inf for all measurable."""
        if self.cls is HypothesisClass.ALL:
            return math.inf
        if self.cls is HypothesisClass.LINEAR:
            return self.B
        return self.Lambda * self.B

    def label(self) -> str:
        if self.cls is HypothesisClass.ALL:
            return "all"
        if self.cls is HypothesisClass.LINEAR:
            return f"linear(W={self.W:g},B={self.B:g})"
        return f"relu(Lambda={self.Lambda:g},W={self.W:g},B={self.B:g})"


@dataclass(frozen=True)
class LinearHypothesis:
    """A concrete linear predictor x -> w*x + b; w is one float (given as a
    scalar or a 1-tuple)."""

    w: float
    b: float

    def __post_init__(self):
        w = self.w
        if isinstance(w, tuple) and len(w) == 1:
            (w,) = w
        if not isinstance(w, numbers.Real):
            raise ValueError(f"inputs are scalars (d = 1): w must be a number or a 1-tuple, got {self.w!r}")
        for name, value in (("w", w), ("b", self.b)):
            if not math.isfinite(value):
                raise ValueError(f"h needs a finite {name}, got {name} = {value}")
        object.__setattr__(self, "w", float(w))

    def validate(self, spec: HypothesisSpec) -> "LinearHypothesis":
        if spec.cls is not HypothesisClass.LINEAR:
            raise ValueError("LinearHypothesis only validates against a LINEAR spec")
        if abs(self.w) > spec.W * (1 + 1e-12):
            raise ValueError(f"h is outside the class: |w| = {abs(self.w)} exceeds W = {spec.W}")
        if abs(self.b) > spec.B * (1 + 1e-12):
            raise ValueError(f"h is outside the class: |b| = {abs(self.b)} exceeds B = {spec.B}")
        return self


def score_range(spec: HypothesisSpec, x_norm_p: float) -> tuple:
    """Exact attainable interval of h(x) for a bounded class; symmetric about 0."""
    if spec.cls is HypothesisClass.ALL:
        raise ValueError("score_range is undefined for the unbounded class")
    hi = spec.score_bound(x_norm_p)
    return (-hi, hi)


def attainable_adversarial_range(spec: HypothesisSpec, x_norm_p) -> tuple:
    """Class-level bracket for sup_h (ball-infimum score) at a point, or
    elementwise for an array of input norms.

    Linear: the supremum equals W*max{|x|, gamma} - gamma*W + B exactly,
    so both endpoints coincide.  ReLU: returns the (Lambda*B, upper-bound)
    sandwich; the exact value has no closed form.
    """
    _check_x_norm(x_norm_p)
    if spec.cls is HypothesisClass.ALL:
        raise ValueError("attainable_adversarial_range is undefined for the unbounded class")
    shifted = spec.W * np.maximum(x_norm_p, spec.gamma) - spec.gamma * spec.W + spec.B
    if spec.cls is HypothesisClass.LINEAR:
        return (shifted, shifted)
    return (spec.Lambda * spec.B, spec.Lambda * shifted)


def _check_x_norm(x_norm_p) -> None:
    # an array is checked at its extremes; a scalar skips numpy's call overhead
    array = isinstance(x_norm_p, np.ndarray)
    lo, hi = (x_norm_p.min(), x_norm_p.max()) if array else (x_norm_p, x_norm_p)
    if not (0.0 <= lo and hi <= 1.0):
        raise ValueError(f"||x||_p must lie in [0, 1], got {x_norm_p}")
