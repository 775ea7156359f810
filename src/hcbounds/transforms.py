"""Estimation-error transformations as explicit piecewise functions.

A transform maps a target-loss regret t in [0, 1] to the least surrogate
regret any hypothesis violating the target can incur; its inverse Gamma turns
a surrogate regret into a target-regret guarantee.  Transforms are breakpoints
plus closed-form segments so tests can assert their structure (segment kinds,
slopes, knots) and the CLI can serialize them.

Segment kinds:

    affine              slope*t + intercept
    power               scale * t**exponent
    entropy             (t+1)/2*log2(t+1) + (1-t)/2*log2(1-t)
    exp_branch          1 - sqrt(1 - t^2)
    <kind>_inverse      least float t in [0, 1] with <kind>(t) >= y, for
                        kind entropy or exp_branch

The forward transforms for the six margin losses over bounded linear or ReLU
classes only differ through one scalar, the class's bias reach c (B, or
Lambda*B for networks); c = +inf recovers the classical unrestricted-class
forms.  Every segment kind has an inverse, so every Gamma, the relaxed
logistic and exponential ones included, is the inverse of forward pieces,
taken segment by segment (``PiecewiseTransform.inverse``).

Worst-case (adversarial) transforms exist only for the rho-margin family;
for worst-case hinge and sigmoid losses, transforms exist only under a
Massart noise assumption, and for worst-case convex losses no nontrivial
transform exists at all (``NegativeResultError``).  ``select_transform``
alone decides which transform applies and returns it with its Gamma.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .hypotheses import HypothesisClass, HypothesisSpec
from .losses import LossFamily, MarginLoss, check_truncation_eps

__all__ = [
    "Direction",
    "Segment",
    "PiecewiseTransform",
    "NegativeResultError",
    "transform",
    "transform_inverse",
    "adversarial_transform",
    "massart_transform",
    "massart_adversarial_transform",
    "select_transform",
    "invert_numerically",
]

_LN2 = math.log(2.0)
_BELOW_ONE = math.nextafter(1.0, 0.0)
_CONTINUITY_TOL = 1e-12
_BISECT_TOL = 1e-12  # invert_numerically's final bracket width


class Direction(enum.Enum):
    FORWARD = "forward"
    INVERSE = "inverse"


class NegativeResultError(ValueError):
    """No nontrivial estimation-error transform exists for this combination."""


@dataclass(frozen=True)
class Segment:
    kind: str  # one of the kinds in the module docstring
    coefficients: tuple = ()

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "affine":
            slope, intercept = self.coefficients
            return slope * t + intercept
        if self.kind == "power":
            scale, exponent = self.coefficients
            return scale * np.power(t, exponent)
        if self.kind == "entropy":
            # log1p keeps the relative accuracy near 0, where the two terms
            # cancel to ~t^2; 0*log(0) = 0 at t = 1
            up = (1.0 + t) * np.log1p(t)
            down = np.where(t < 1.0, (1.0 - t) * np.log1p(-np.minimum(t, _BELOW_ONE)), 0.0)
            return (up + down) / (2.0 * _LN2)
        if self.kind == "exp_branch":
            # 1 - sqrt(1 - t^2) without its cancellation near 0
            return t * t / (1.0 + np.sqrt(np.maximum(1.0 - t * t, 0.0)))
        if self.kind.endswith("_inverse"):
            return _least_preimage(Segment(self.kind.removesuffix("_inverse")), t)
        raise ValueError(f"unknown segment kind {self.kind!r}")

    def derivative(self, t: float) -> float:
        if self.kind == "affine":
            return self.coefficients[0]
        if self.kind == "power":
            scale, exponent = self.coefficients
            if t <= 0.0:
                return math.inf if exponent < 1.0 else (scale if exponent == 1.0 else 0.0)
            return scale * exponent * t ** (exponent - 1.0)
        if self.kind == "entropy":
            if t >= 1.0:
                return math.inf
            return 0.5 * math.log2((1.0 + t) / (1.0 - t))
        if self.kind == "exp_branch":
            if t >= 1.0:
                return math.inf
            return t / math.sqrt(1.0 - t * t)
        if self.kind.endswith("_inverse"):  # 1/T' at the inverted point
            slope = Segment(self.kind.removesuffix("_inverse")).derivative(float(self(t)))
            return 1.0 / slope if slope > 0.0 else math.inf
        raise ValueError(f"unknown segment kind {self.kind!r}")

    def inverse(self) -> "Segment":
        """The inverse function of an increasing forward segment."""
        if self.kind == "affine":
            slope, intercept = self.coefficients
            # 0.0 - intercept keeps a zero intercept +0.0
            return Segment("affine", (1.0 / slope, (0.0 - intercept) / slope))
        if self.kind == "power":
            scale, exponent = self.coefficients
            return Segment("power", (scale ** (-1.0 / exponent), 1.0 / exponent))
        if self.kind in ("entropy", "exp_branch"):
            return Segment(self.kind + "_inverse")
        raise ValueError(f"no inverse for segment kind {self.kind!r}")


_ONE_BITS = int(np.float64(1.0).view(np.int64))


def _least_preimage(forward: Segment, y):
    """Least float t in [0, 1] with forward(t) >= y, elementwise, for an
    increasing forward segment: bisection over the ordered bit patterns of
    [0, 1], down to adjacent floats."""
    y = np.asarray(y, dtype=float)
    lo = np.zeros(y.shape, dtype=np.int64)
    hi = np.full(y.shape, _ONE_BITS, dtype=np.int64)
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        below = forward(mid.view(np.float64)) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(y > 0.0, hi.view(np.float64), 0.0)


@dataclass(frozen=True)
class PiecewiseTransform:
    """Breakpoints plus per-interval segments; immutable after construction.

    ``breakpoints`` has one more entry than ``segments``; segment i applies on
    [breakpoints[i], breakpoints[i+1]]; the domain is [0, ``domain_end``].
    Forward transforms live on [0, 1] ([0, inf) for the pieces
    ``transform_inverse`` inverts); an inverse's domain is its forward's
    range: [0, T(1)], or R+ for ``transform_inverse``.
    """

    breakpoints: tuple
    segments: tuple
    direction: Direction
    eps: float = 0.0
    relaxed: bool = False
    loss_label: str = ""
    class_label: str = ""
    note: str = ""

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "segments", tuple(self.segments))
        if len(bps) != len(self.segments) + 1:
            raise ValueError("need exactly one more breakpoint than segments")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError(f"breakpoints must be strictly increasing, got {bps}")
        if bps[0] != 0.0:
            raise ValueError("transforms start at 0")
        for knot, left, right in zip(bps[1:-1], self.segments, self.segments[1:]):
            gap = abs(float(left(knot)) - float(right(knot)))
            if gap > _CONTINUITY_TOL:
                raise ValueError(f"discontinuity {gap:.3e} at breakpoint {knot}")

    @property
    def domain_end(self) -> float:
        return self.breakpoints[-1]

    def _segment_index(self, t):
        knots = np.asarray(self.breakpoints[1:-1], dtype=float)
        return np.searchsorted(knots, t, side="left")

    def __call__(self, t):
        scalar = np.isscalar(t)
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < -1e-12) or np.any(t_arr > self.domain_end + 1e-12):
            raise ValueError(f"argument outside domain [0, {self.domain_end}]")
        t_arr = np.clip(t_arr, 0.0, None)
        idx = self._segment_index(t_arr)
        out = np.empty_like(t_arr)
        for i, seg in enumerate(self.segments):
            mask = idx == i
            if mask.any():
                out[mask] = seg(t_arr[mask])
        return float(out[0]) if scalar else out

    def _one_sided_derivatives(self, t: float):
        i = int(self._segment_index(t))
        cands = [self.segments[i].derivative(t)]
        for j, knot in enumerate(self.breakpoints[1:-1]):
            if abs(knot - t) <= 1e-15:
                cands.append(self.segments[j].derivative(t))
                cands.append(self.segments[j + 1].derivative(t))
        return cands

    def derivative_upper(self, t: float) -> float:
        """Largest one-sided derivative at t (conservative at breakpoints)."""
        return max(self._one_sided_derivatives(t))

    def inverse(self) -> "PiecewiseTransform":
        """Inverse of an increasing forward transform, segment by segment.
        Its breakpoints are this transform's values at its breakpoints, so its
        domain is this transform's range: [0, T(1)] on [0, 1], R+ on R+."""
        if self.direction is not Direction.FORWARD:
            raise ValueError("only forward transforms are inverted")
        return replace(
            self,
            breakpoints=(0.0, *(float(self(b)) for b in self.breakpoints[1:])),
            segments=tuple(seg.inverse() for seg in self.segments),
            direction=Direction.INVERSE,
        )

    def to_json_dict(self) -> dict:
        return {
            "loss": self.loss_label,
            "class_params": self.class_label,
            "direction": self.direction.value,
            "eps": self.eps,
            "relaxed": self.relaxed,
            "note": self.note,
            "breakpoints": [b if math.isfinite(b) else "inf" for b in self.breakpoints],
            "segments": [
                {"kind": s.kind, "coefficients": list(s.coefficients)} for s in self.segments
            ],
        }


def _affine(slope, intercept=0.0):
    return Segment("affine", (float(slope), float(intercept)))


def _power(scale, exponent):
    return Segment("power", (float(scale), float(exponent)))


def _check_scale(c: float) -> float:
    if not c > 0:
        raise ValueError(f"class bias reach must be positive, got {c}")
    return c


def _log2_1p_exp(c: float) -> float:
    """log2(1 + e^c), stable for large |c|."""
    return float(np.logaddexp(0.0, c)) / _LN2


def _forward_pieces(loss: MarginLoss, c: float):
    """Interior knots and segments of the forward transform's formula on
    [0, inf); knots at or beyond 1 lie outside the transform's domain."""
    fam = loss.family
    if fam is LossFamily.HINGE:
        return [], [_affine(min(c, 1.0))]
    if fam is LossFamily.SIGMOID:
        slope = 1.0 if math.isinf(c) else math.tanh(loss.k * c)
        return [], [_affine(slope)]
    if fam is LossFamily.RHO_MARGIN:
        return [], [_affine(min(c, loss.rho) / loss.rho)]
    if fam is LossFamily.QUADRATIC:
        # no knot once the affine piece overflows there (2c^2 = inf): the
        # inverse of t^2 alone is then exact up to y = c^2, past 1e307
        if math.isinf(2.0 * c * c):
            return [], [_power(1.0, 2.0)]
        return [c], [_power(1.0, 2.0), _affine(2.0 * c, -c * c)]
    if fam is LossFamily.LOGISTIC:
        if math.isinf(c):
            return [], [Segment("entropy")]
        knot = math.tanh(c / 2.0)  # = (e^c - 1)/(e^c + 1)
        if knot >= 1.0:
            return [], [Segment("entropy")]
        slope = 0.5 * (_log2_1p_exp(c) - _log2_1p_exp(-c))
        intercept = 1.0 - 0.5 * (_log2_1p_exp(-c) + _log2_1p_exp(c))
        return [knot], [Segment("entropy"), _affine(slope, intercept)]
    if fam is LossFamily.EXPONENTIAL:
        if math.isinf(c):
            return [], [Segment("exp_branch")]
        knot = math.tanh(c)  # = (e^2c - 1)/(e^2c + 1)
        if knot >= 1.0:
            return [], [Segment("exp_branch")]
        return [knot], [Segment("exp_branch"), _affine(math.sinh(c), 1.0 - math.cosh(c))]
    raise ValueError(f"unknown loss family {fam!r}")


def _restricted(knots, segs, end: float = 1.0, **labels) -> PiecewiseTransform:
    """The forward transform with these pieces on [0, inf), restricted to [0, end]."""
    inside = sum(k < end for k in knots)
    return PiecewiseTransform(
        (0.0, *knots[:inside], end), segs[: inside + 1], Direction.FORWARD, **labels
    )


def transform(loss: MarginLoss, spec: HypothesisSpec, eps: float = 0.0) -> PiecewiseTransform:
    """Forward estimation-error transform of a margin loss for the given class."""
    check_truncation_eps(eps)
    if spec.adversarial:
        raise ValueError("spec has gamma > 0; use adversarial_transform")
    c = _check_scale(spec.margin_scale())
    pt = _restricted(*_forward_pieces(loss, c), loss_label=loss.label(), class_label=spec.label())
    if eps > 0.0:
        pt = _apply_eps_floor(pt, eps)
    return pt


def _apply_eps_floor(pt: PiecewiseTransform, eps: float) -> PiecewiseTransform:
    """Replace the transform below eps with the chord through (eps, T(eps))."""
    t_eps = pt(eps)
    if t_eps <= 0.0:
        raise ValueError(
            f"eps-truncated transform undefined: T({eps}) = 0 (degenerate chord slope)"
        )
    new_bps = [0.0, eps]
    new_segs = [_affine(t_eps / eps)]
    old = list(pt.breakpoints)
    for i, seg in enumerate(pt.segments):
        left, right = old[i], old[i + 1]
        if right <= eps:
            continue
        new_bps.append(right)
        new_segs.append(seg)
    return replace(pt, breakpoints=tuple(new_bps), segments=tuple(new_segs), eps=eps)


def transform_inverse(loss: MarginLoss, spec: HypothesisSpec) -> PiecewiseTransform:
    """Inverse transform on R+: the inverse of the forward formula on
    [0, inf), so a knot the forward transform has beyond 1 (quadratic loss,
    B >= 1) is kept.  For the logistic and exponential losses it inverts the
    standard relaxation T(t) >= t^2/2 instead, flagged ``relaxed``: t^2/2 up
    to tanh(c'), then its chord 0.5*tanh(c')*t, with c' = c/2 (logistic) or
    c (exponential)."""
    if spec.adversarial:
        raise ValueError("spec has gamma > 0; use adversarial_transform")
    c = _check_scale(spec.margin_scale())
    relaxed = loss.family in (LossFamily.LOGISTIC, LossFamily.EXPONENTIAL)
    if relaxed:
        knot = math.tanh(c / 2.0 if loss.family is LossFamily.LOGISTIC else c)  # 1 at c = inf
        pieces = [knot], [_power(0.5, 2.0), _affine(0.5 * knot)]
    else:
        pieces = _forward_pieces(loss, c)
    labels = dict(loss_label=loss.label(), class_label=spec.label())
    return _restricted(*pieces, math.inf, relaxed=relaxed, **labels).inverse()


def adversarial_transform(
    loss: MarginLoss, spec: HypothesisSpec, eps: float = 0.0
) -> PiecewiseTransform:
    """Worst-case estimation-error transform; only the rho-margin family has one.

    For the ReLU class the slope uses the Lambda*B relaxation of the class's
    best worst-case score (the exact quantity has no explicit expression).
    """
    check_truncation_eps(eps)
    if not spec.adversarial:
        raise ValueError("adversarial transform requires gamma > 0")
    if spec.cls not in (HypothesisClass.LINEAR, HypothesisClass.ONE_HIDDEN_RELU):
        raise ValueError("adversarial transforms cover linear and ReLU classes only")
    fam = loss.family
    if fam is not LossFamily.RHO_MARGIN:
        hint = (
            " (under Massart noise, use massart_adversarial_transform)"
            if fam in (LossFamily.HINGE, LossFamily.SIGMOID)
            else ""
        )
        raise NegativeResultError(
            f"no nontrivial worst-case transform exists for the {fam.value} loss: any "
            f"distribution-independent guarantee is lower bounded by 1/2{hint}"
        )
    c = _check_scale(spec.margin_scale())
    note = "Lambda*B relaxation" if spec.cls is HypothesisClass.ONE_HIDDEN_RELU else ""
    return _restricted(
        *_forward_pieces(loss, c),
        eps=eps,
        loss_label="sup-" + loss.label(),
        class_label=spec.label(),
        note=note,
    )


def massart_transform(loss: MarginLoss, spec: HypothesisSpec, beta: float) -> PiecewiseTransform:
    """Noise-adapted transform for the unrestricted class: the base transform
    above 2*beta, its chord through the origin below."""
    _check_beta(beta)
    if spec.cls is not HypothesisClass.ALL:
        raise ValueError("the Massart-modified transform is defined for the unrestricted class")
    if loss.family not in (LossFamily.QUADRATIC, LossFamily.LOGISTIC, LossFamily.EXPONENTIAL):
        raise ValueError(f"Massart-modified transform not derived for {loss.family.value}")
    _, (base,) = _forward_pieces(loss, math.inf)
    knot = 2.0 * beta  # at beta = 1/2 the chord covers all of [0, 1]
    chord = _affine(float(base(knot)) / knot)
    label = f"massart(beta={beta:g})-" + loss.label()
    return _restricted([knot], [chord, base], loss_label=label, class_label=spec.label())


def massart_adversarial_transform(
    loss: MarginLoss, spec: HypothesisSpec, beta: float
) -> PiecewiseTransform:
    """Noise-adapted worst-case transform for hinge or sigmoid surrogates:
    slope c*4*beta/(1+2*beta) below 1/2+beta, then c*(2t-1), where c is
    min{B,1} (hinge) or tanh(k*B) (sigmoid), with Lambda*B replacing B for
    ReLU networks.  Worst-case convex losses have no nontrivial transform
    (``NegativeResultError``); rho-margin has no Massart-modified one."""
    _check_beta(beta)
    if not spec.adversarial:
        raise ValueError("adversarial transform requires gamma > 0")
    if spec.cls not in (HypothesisClass.LINEAR, HypothesisClass.ONE_HIDDEN_RELU):
        raise ValueError("adversarial transforms cover linear and ReLU classes only")
    if loss.family is LossFamily.RHO_MARGIN:
        raise ValueError("Massart-modified worst-case transform not derived for rho-margin")
    if loss.family not in (LossFamily.HINGE, LossFamily.SIGMOID):
        fam = loss.family.value
        raise NegativeResultError(f"no nontrivial guarantee exists for the worst-case {fam} loss")
    _, (base,) = _forward_pieces(loss, _check_scale(spec.margin_scale()))
    c = base.coefficients[0]  # the standard transform's slope
    segs = [_affine(c * 4.0 * beta / (1.0 + 2.0 * beta)), _affine(2.0 * c, -c)]
    label = f"massart(beta={beta:g})-sup-" + loss.label()
    return _restricted([0.5 + beta], segs, loss_label=label, class_label=spec.label())


def select_transform(
    loss: MarginLoss, spec: HypothesisSpec, massart: float = None, eps: float = 0.0
) -> tuple:
    """(forward, gamma): the transform that applies to this loss, class and
    Massart beta (worst-case if spec.gamma > 0, Massart-modified if beta is
    given), and the Gamma a bound applies to a surrogate regret: on the
    standard route ``transform_inverse`` on R+ (relaxed for logistic and
    exponential), else ``forward.inverse()`` on [0, T(1)].  Massart-modified
    transforms are not truncated, so a beta with eps != 0 is rejected."""
    if massart is not None and eps != 0.0:
        raise ValueError(f"Massart-modified transforms are not truncated; eps must be 0, got {eps}")
    if not spec.adversarial:
        if massart is None:
            return transform(loss, spec, eps), transform_inverse(loss, spec)
        forward = massart_transform(loss, spec, massart)
    elif massart is None:
        forward = adversarial_transform(loss, spec, eps)
    else:
        forward = massart_adversarial_transform(loss, spec, massart)
    return forward, forward.inverse()


def invert_numerically(pt: PiecewiseTransform, y):
    """Exact inverse of a monotone forward transform by bisection on [0, end],
    to a bracket of width 1e-12.

    y may be an array: every element is bisected at once, each with the
    midpoints, ``pt(mid) < y`` tests and ``hi - lo > 1e-12`` stop it would
    have alone, so each result is the scalar call's.  A scalar y gives a
    float."""
    if pt.direction is not Direction.FORWARD:
        raise ValueError("numeric inversion applies to forward transforms")
    end = pt.breakpoints[-1]
    top = pt(end)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    outside = (ys < -_BISECT_TOL) | (ys > top + 1e-9)
    if np.any(outside):
        raise ValueError(f"value {ys[outside][0]} outside transform range [0, {top}]")
    ys = np.minimum(np.maximum(ys, 0.0), top)
    lo, hi = np.zeros_like(ys), np.full_like(ys, end)
    while np.any(live := hi - lo > _BISECT_TOL):
        mid = 0.5 * (lo + hi)
        below = pt(mid) < ys
        lo, hi = np.where(live & below, mid, lo), np.where(live & ~below, mid, hi)
    out = 0.5 * (lo + hi)
    return float(out[0]) if np.ndim(y) == 0 else out


def _check_beta(beta: float) -> None:
    if not 0.0 < beta <= 0.5:
        raise ValueError(f"Massart beta must lie in (0, 1/2], got {beta}")
