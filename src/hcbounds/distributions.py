"""Labeled synthetic distributions on [-1, 1].

A ``LabeledDistribution`` is a finite mixture of labeled components, each an
atom (point mass) or a truncated normal.  Truncated-normal parameters are the
pre-truncation normal's mean and standard deviation, the standard convention.
The label posterior eta(x) = P(y = +1 | x) is computed measure-theoretically:
at an atom location the point masses dominate (continuous components
contribute zero probability to a single point), elsewhere the continuous
densities decide.

Sampling is exact inverse-CDF sampling driven by a counter-based generator
(Philox) with per-chunk substreams keyed by (seed, chunk index), so output is
reproducible bit-for-bit.  ``_map_sample_blocks``, the one block driver,
draws fixed 2^16-draw blocks of each chunk on the shared thread pool into
block buffers that each worker reuses, or the positions straight into a
caller's array, and hands each block to a consumer on its worker: ``sample``
draws into its output and copies the labels, Monte Carlo risks and the sweep
cells score each block in place.  No output depends on the
thread count.
Expectations take an integrand of arrays (x, eta(x)) and sum atoms exactly.
``_integrate_continuous``, the one per-component integrator of expectations
and of the exact logistic and sigmoid risks, runs ``_gauss_kronrod``,
QUADPACK's adaptive 21-point Gauss-Kronrod rule evaluated on every open
panel in one array call, so the integrand runs once per round, and each
panel it refines cut into 4 (absolute and relative tolerance 1e-10; an
error estimate above 1e-8 raises ``QuadratureError``).  ``expectation``
splits its first panels at every support end, where eta jumps, and on a
component that meets no other takes eta as its label's 0 or 1 off the
atoms.  The error estimates come back on request,
and bound reports sum them into their ``quad_err`` provenance entry; each
is the sum of the K21/G10 estimates of the panels evaluated, blind to a
feature that lies between one panel's nodes.  scipy is used only for the
normal cdf ``ndtr`` and its inverse ``ndtri``, imported when a truncated
normal first needs them; each truncated normal computes the tail at its
lower end once.

The two preset families used by the simulation sweeps live here as
``sect7_nonadversarial`` and ``sect7_adversarial`` (names kept short in the
CLI: ``sect7-nonadv`` / ``sect7-adv``).
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from ._runtime import thread_map

__all__ = [
    "Atom",
    "TruncNormal",
    "Component",
    "LabeledDistribution",
    "QuadratureError",
    "sect7_nonadversarial",
    "sect7_adversarial",
    "sample",
    "expectation",
    "dist_to_json_dict",
    "dist_from_json_dict",
    "preset_distribution",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_WEIGHT_TOL = 1e-12
_QUAD_ABS_TOL = 1e-8
_QUAD_REL_TOL = 1e-10
_QUAD_EPSABS = 1e-10  # the adaptive rule stops once its error estimate is below this or _QUAD_REL_TOL * |value|
_QUAD_LIMIT = 200  # most panels one integral may evaluate, checked before each round
_SAMPLE_CHUNK = 1 << 20  # draws per Philox substream
_SAMPLE_BLOCK = 1 << 16  # draws per sampling task


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested absolute tolerance."""


@dataclass(frozen=True)
class Atom:
    x: float


@dataclass(frozen=True)
class TruncNormal:
    """Normal(mean, std) conditioned on [lo, hi]; mean/std are pre-truncation."""

    lo: float
    hi: float
    mean: float
    std: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not self.std > 0:
            raise ValueError(f"std must be positive, got {self.std}")
        if not self._mass > 0.0:
            raise ValueError(
                f"Normal({self.mean}, {self.std}) puts no floating-point mass on [{self.lo}, {self.hi}]"
            )

    def _z(self, x):
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    @property
    def _upper(self) -> bool:
        # Above the mean ndtr(z) is near 1 and differences of it cancel; there
        # the complementary tail ndtr(-z) keeps full relative precision.
        return self.lo > self.mean

    def _tail(self, x):
        """The normal cdf at z(x), or on an upper tail its complement ndtr(-z(x))."""
        from scipy.special import ndtr  # scipy.special is imported on first use

        return ndtr(-self._z(x) if self._upper else self._z(x))

    @functools.cached_property
    def _lo_tail(self) -> float:
        return float(self._tail(self.lo))

    @functools.cached_property
    def _mass(self) -> float:
        if self._upper:
            return float(self._lo_tail - self._tail(self.hi))
        return float(self._tail(self.hi) - self._lo_tail)

    def _density(self, x):
        """The density at the array x, taken as if every x lay in the support."""
        z = self._z(x)
        return np.exp(-0.5 * z * z) / (self.std * _SQRT_2PI * self._mass)

    def pdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        inside = (x_arr >= self.lo) & (x_arr <= self.hi)
        out = np.where(inside, self._density(x_arr), 0.0)
        return out if isinstance(x, np.ndarray) else float(out)

    def cdf(self, x):
        tail = self._tail(np.clip(np.asarray(x, dtype=float), self.lo, self.hi))
        out = (self._lo_tail - tail if self._upper else tail - self._lo_tail) / self._mass
        return out if isinstance(x, np.ndarray) else float(out)

    def ppf(self, u, out=None):
        """Inverse cdf at u, written into ``out`` when given (a float64 array
        of u's shape, u itself included)."""
        from scipy.special import ndtri

        # clip(mean + std * ndtri(lo_tail + u * mass)), computed in one buffer;
        # on an upper tail, clip(mean - std * ndtri(lo_tail - u * mass))
        x = np.multiply(u, self._mass, out=np.empty(np.shape(u)) if out is None else out)
        if self._upper:
            np.subtract(self._lo_tail, x, out=x)
            ndtri(x, out=x)
            x *= -self.std
        else:
            x += self._lo_tail
            ndtri(x, out=x)
            x *= self.std
        x += self.mean
        np.clip(x, self.lo, self.hi, out=x)
        return x if out is not None or isinstance(u, np.ndarray) else float(x)


@dataclass(frozen=True)
class Component:
    weight: float
    label: int
    law: object  # Atom | TruncNormal

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"component weight must lie in [0, 1], got {self.weight}")
        if self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label}")


@dataclass(frozen=True)
class LabeledDistribution:
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("distribution needs at least one component")
        total = math.fsum(c.weight for c in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"component weights must sum to 1, got {total!r}")
        for c in comps:
            if isinstance(c.law, Atom):
                if not -1.0 <= c.law.x <= 1.0:
                    raise ValueError(f"atom at {c.law.x} outside [-1, 1]")
            elif isinstance(c.law, TruncNormal):
                if c.law.lo < -1.0 or c.law.hi > 1.0:
                    raise ValueError(f"truncated normal support [{c.law.lo}, {c.law.hi}] outside [-1, 1]")
            else:
                raise ValueError(f"unknown law {c.law!r}")
        atoms = tuple(c for c in comps if isinstance(c.law, Atom))
        object.__setattr__(self, "_atoms", atoms)
        object.__setattr__(self, "_continuous", tuple(c for c in comps if isinstance(c.law, TruncNormal)))
        # eta at each atom location that carries mass, summed in component order
        masses = {}
        for c in atoms:
            m_pos, m_neg = masses.get(c.law.x, (0.0, 0.0))
            masses[c.law.x] = (m_pos + c.weight, m_neg) if c.label > 0 else (m_pos, m_neg + c.weight)
        object.__setattr__(
            self, "_atom_eta", {x: p / (p + n) for x, (p, n) in masses.items() if p + n > 0.0}
        )

    @classmethod
    def from_atoms(cls, atoms) -> "LabeledDistribution":
        """The atom-only distribution of (x, weight, eta) triples: at x, mass
        weight*eta with label +1 and weight*(1 - eta) with label -1, a side of
        zero mass left out.  Each x must lie in [-1, 1] and each weight and
        eta in [0, 1], NaN failing; triples at one x merge, as the posterior
        always does."""
        comps = []
        for x, w, e in atoms:
            x, w, e = float(x), float(w), float(e)
            if not (-1.0 <= x <= 1.0 and 0.0 <= e <= 1.0):
                raise ValueError(f"need x in [-1, 1] and eta in [0, 1], got x={x}, eta={e}")
            Component(w, 1, Atom(x))  # rejects a weight outside [0, 1], NaN included
            comps += [Component(m, y, Atom(x)) for m, y in ((w * e, 1), (w * (1.0 - e), -1)) if m > 0.0]
        return cls(tuple(comps))

    def atoms(self) -> tuple:
        return self._atoms

    def continuous(self) -> tuple:
        return self._continuous

    def eta(self, x):
        """P(y = +1 | x), for a scalar x or elementwise for an ndarray.

        Point masses dominate at their exact locations; where neither atoms
        nor densities put mass, returns 1/2.  A scalar is taken as a
        one-element array."""
        xs = x if isinstance(x, np.ndarray) else np.array([x], dtype=float)
        out = self._eta_from(xs, [(c, c.law.pdf(xs)) for c in self._continuous])
        return out if xs is x else float(out[0])

    def _eta_from(self, x, densities):
        """eta at the array x from (continuous component, its pdf at x)
        pairs; a component left out must have zero density on x."""
        d_pos = d_neg = 0.0
        for c, pdf in densities:
            d = c.weight * pdf
            if c.label > 0:
                d_pos += d
            else:
                d_neg += d
        total = d_pos + d_neg
        out = np.full(x.shape, 0.5)
        np.divide(d_pos, total, out=out, where=total != 0.0)
        return self._atoms_over(out, x)

    def _atoms_over(self, out, x):
        """out, eta at the array x off the atoms, with the atoms' eta written
        in at their locations."""
        for loc, e in self._atom_eta.items():
            out[x == loc] = e
        return out


def sect7_nonadversarial(sigma: float) -> LabeledDistribution:
    """Mirror-symmetric atom + truncated-normal mixture used by the
    non-adversarial simulation: a flipped-label atom at each endpoint, and
    +-labeled truncated normals on [sigma, 1] / [-1, -sigma] whose
    pre-truncation mean and standard deviation both equal sigma."""
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    return LabeledDistribution(
        (
            Component(1.0 / 16.0, -1, Atom(1.0)),
            Component(1.0 / 16.0, 1, Atom(-1.0)),
            Component(7.0 / 16.0, 1, TruncNormal(sigma, 1.0, sigma, sigma)),
            Component(7.0 / 16.0, -1, TruncNormal(-1.0, -sigma, -sigma, sigma)),
        )
    )


def sect7_adversarial(sigma: float, gamma: float = 0.1) -> LabeledDistribution:
    """Adversarial-simulation mixture: endpoint atoms plus a -1-labeled
    truncated normal on [-1, gamma - sigma] with mean gamma - sigma."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not gamma - sigma > -1.0:
        raise ValueError(f"need gamma - sigma > -1, got gamma={gamma}, sigma={sigma}")
    return LabeledDistribution(
        (
            Component(1.0 / 16.0, -1, Atom(1.0)),
            Component(1.0 / 16.0, 1, Atom(-1.0)),
            Component(7.0 / 8.0, -1, TruncNormal(-1.0, gamma - sigma, gamma - sigma, sigma)),
        )
    )


def _require_integer(what: str, value) -> None:
    """Refuse a bool or any non-integer (numpy integers pass): the uint64
    key of ``_philox_at`` would truncate a float or a bool to an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _philox_at(seed: int, chunk: int, offset: int):
    """The generator of substream (seed, chunk), positioned after ``offset``
    doubles: Philox yields four 64-bit words per counter step and each double
    takes one word, so ``advance(offset // 4)`` skips whole steps and the
    rest are drawn and dropped."""
    bitgen = np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64))
    bitgen.advance(offset // 4)
    rng = np.random.Generator(bitgen)
    rng.random(offset % 4)
    return rng


def _component_picker(cum):
    """pick(u, out, cell) writes ``np.searchsorted(cum, u, side="right")``
    into out, for u in [0, 1) and cum sorted and ending in inf, by a guide
    table (Chen and Asau, 1974); out and cell are intp arrays of u's shape,
    and cell is overwritten.

    [0, 1) is cut into 2^t >= 4K equal cells for K components.  u times a
    power of two is exact, so u's cell is too, and the table gives the count
    of cutoffs up to the cell's left edge.  Only draws in a cell with a
    cutoff strictly inside it search further, by halving over as many
    cutoffs as the fullest cell holds (log2 K steps at worst).  Nothing
    branches on u, as a binary search over cum would, and with at least four
    cells per component few draws search at all, whatever K.  The sect7
    weights are sixteenths, so their cutoffs lie on cell edges and no draw
    searches.
    """
    cells = 1 << ((len(cum) - 1).bit_length() + 2)
    edges = np.arange(cells + 1) / cells
    start = np.searchsorted(cum, edges[:-1], side="right")
    inside = np.searchsorted(cum, edges[1:], side="left") - start  # cutoffs strictly inside each cell
    crowded = inside > 0
    width = 1 << int(inside.max()).bit_length()  # a power of two above every cell's count
    padded = np.concatenate((cum, np.full(width, np.inf)))

    def pick(u, out, cell):
        np.multiply(u, cells, out=cell, casting="unsafe")  # truncates, as astype(np.intp) does
        np.take(start, cell, out=out, mode="clip")
        if width > 1:
            ix = np.flatnonzero(crowded.take(cell))
            v, i = u.take(ix), out.take(ix)
            step = width // 2
            while step:
                i += step * (padded.take(i + (step - 1)) <= v)
                step //= 2
            out.put(ix, i)
        return out

    return pick


def sample(dist: LabeledDistribution, n: int, seed: int):
    """n i.i.d. draws; returns (x, y) arrays. Deterministic given the seed.

    A consumer of ``_map_sample_blocks``: each 2^16-draw block's positions
    are drawn into their slice of the output and its labels copied there,
    so the output does not depend on the thread count.
    """
    _require_integer("the sample size n", n)  # before np.empty reads n
    _require_integer("the seed", seed)
    xs = np.empty(n, dtype=float)
    ys = np.empty(n, dtype=np.int64)

    def copy(start, x, y, spare):
        ys[start : start + len(y)] = y

    _map_sample_blocks(dist, n, seed, copy, into=xs)
    return xs, ys


def _map_sample_blocks(dist: LabeledDistribution, n: int, seed: int, fn, into=None) -> list:
    """[fn(start, x, y, spare) for each block of ``sample(dist, n, seed)``],
    in block order: the sampler's one block loop.

    Chunk c of 2^20 draws (m of them in a short last chunk) reads substream
    (seed, c): its doubles 0..m-1 pick the components and its doubles
    m..2m-1 the positions.  The 2^16-draw block at offset a of its chunk
    reads the doubles from a and from m + a, so it consumes exactly the
    words a single pass over the chunk would, and every element goes
    through the same elementwise operations.

    start is the block's offset in the sample, x and y hold its positions
    and its labels (int8), and spare is a pair of float arrays of its size
    that the draws no longer need; fn may overwrite all four, and runs on
    the block's ``thread_map`` worker.  Given ``into``, a float64 array of n
    values, x is the block's slice of it; else a worker buffer.  Each worker
    reuses its block buffers, five floats or int8 labels per draw (four with
    ``into``), held in a ``threading.local`` of this call: memory does not
    grow with n, and no buffer outlives the call.  No step allocates a block
    of floats: only each continuous component's index list, released before
    fn runs, and a block of bools are fresh.
    """
    _require_integer("the sample size n", n)
    _require_integer("the seed", seed)
    n, seed = int(n), int(seed)  # a numpy integer n would overflow Philox.advance
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    comps = dist.components
    cum = np.cumsum([c.weight for c in comps])
    cum[-1] = np.inf  # a draw past the rounded total belongs to the last component
    labels = np.array([c.label for c in comps], dtype=np.int8)
    # continuous components get a placeholder location, overwritten by their ppf
    locs = np.array([c.law.x if isinstance(c.law, Atom) else 0.0 for c in comps])
    continuous = [(ci, c.law) for ci, c in enumerate(comps) if isinstance(c.law, TruncNormal)]
    pick = _component_picker(cum)
    held = threading.local()

    def run(start):
        chunk, a = divmod(start, _SAMPLE_CHUNK)
        m, size = min(_SAMPLE_CHUNK, n - start + a), min(_SAMPLE_BLOCK, n - start)
        if not hasattr(held, "bufs"):
            cap = min(_SAMPLE_BLOCK, n)
            held.bufs = tuple(np.empty(cap, t) for t in (float, np.intp, float, np.int8))
            held.x = np.empty(cap) if into is None else None
        u, idx, scratch, y = (buf[:size] for buf in held.bufs)
        x = held.x[:size] if into is None else into[start : start + size]
        _philox_at(seed, chunk, a).random(out=u)  # component draws
        pick(u, idx, scratch.view(np.intp)[:size])  # scratch holds the cells until the positions need it
        _philox_at(seed, chunk, m + a).random(out=u)  # position draws, same buffer
        # idx is always in range; mode="raise" would buffer the output
        np.take(locs, idx, out=x, mode="clip")
        for ci, law in continuous:
            ix = np.flatnonzero(idx == ci)
            part = scratch[: len(ix)]
            x[ix] = law.ppf(u.take(ix, out=part, mode="clip"), out=part)
            del ix  # fn may need the memory
        np.take(labels, idx, out=y, mode="clip")
        return fn(start, x, y, (u, scratch))

    return thread_map(run, range(0, n, _SAMPLE_BLOCK))


# QUADPACK's qk21 pair (Piessens et al., QUADPACK, 1983): the Kronrod
# abscissae on [0, 1] in decreasing order, whose odd entries are the 10-point
# Gauss nodes, their Kronrod weights, and the Gauss weights of those nodes.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208023783365, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

_WG11 = [_WG[i // 2] if i % 2 else 0.0 for i in range(11)]  # 0 off the Gauss nodes
# the 21 nodes -x0, ..., -x9, 0, x9, ..., x0 on [-1, 1] and both weights there
_QK_NODES = np.r_[np.negative(_XGK[:10]), _XGK[::-1]]
_QK_WK = np.r_[_WGK[:10], _WGK[::-1]]
_QK_WG = np.r_[_WG11[:10], _WG11[::-1]]
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


def _gauss_kronrod(f, a: float, b: float, points=()):
    """Adaptive 21-point Gauss-Kronrod quadrature of f over [a, b]; returns
    (value, error estimate).

    f maps a 1-D array of nodes to the integrand's values there.  The first
    panels are [a, b] split at ``points`` (kinks and jumps of f).  Each round
    evaluates f once on the 21 nodes of every open panel and estimates each
    panel's error from the K21/G10 difference with QUADPACK's scaling.  It
    stops when the summed estimate is within max(1e-10, 1e-10 * |value|),
    else cuts each panel whose estimate exceeds its width's share of it into
    4 equal panels (``_refine``): a round costs mostly numpy overhead, not
    integrand work, and 4-way cuts reach a fine panel in half the rounds of
    bisection.  Raises ``QuadratureError`` when the panels accepted and the
    new ones would exceed 200, or when the integrand is not finite.
    """
    edges = np.array([a, *sorted({p for p in points if a < p < b}), b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    done_val = done_err = 0.0
    n_done = 0
    while True:
        half = 0.5 * (hi - lo)
        xs = (0.5 * (lo + hi))[:, None] + half[:, None] * _QK_NODES
        fx = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
        if not np.isfinite(fx).all():
            raise QuadratureError(f"integrand not finite on [{a}, {b}]")
        resk = fx @ _QK_WK
        resabs = (np.abs(fx) @ _QK_WK) * half
        resasc = (np.abs(fx - 0.5 * resk[:, None]) @ _QK_WK) * half
        err = np.abs((resk - fx @ _QK_WG) * half)
        scaled = (resasc != 0.0) & (err != 0.0)
        err[scaled] = resasc[scaled] * np.minimum(1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5)
        err = np.where(resabs > _UFLOW / (50.0 * _EPMACH), np.maximum(50.0 * _EPMACH * resabs, err), err)
        val = resk * half
        value, error = done_val + float(val.sum()), done_err + float(err.sum())
        tol = max(_QUAD_EPSABS, _QUAD_REL_TOL * abs(value))
        split = err > tol * (hi - lo) / (b - a)
        if error <= tol or not split.any():
            return value, error
        done_val += float(val[~split].sum())
        done_err += float(err[~split].sum())
        n_done += int(np.count_nonzero(~split))
        lo, hi = _refine(lo[split], hi[split])
        if n_done + lo.size > _QUAD_LIMIT:
            raise QuadratureError(
                f"quadrature needs more than {_QUAD_LIMIT} panels on [{a}, {b}] (error {error:.2e})"
            )


def _refine(lo, hi):
    """The panels [lo, hi] each cut into 4 equal panels at its midpoint and
    at the midpoints of its halves, so that they tile it exactly."""
    mid = 0.5 * (lo + hi)
    cuts = (lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi)
    return np.concatenate(cuts[:-1]), np.concatenate(cuts[1:])


def _integrate_continuous(components, integrand_on, points, total: float):
    """(total + sum of weight * integral, sum of weight * error estimate)
    over the continuous components given, added in their order.

    ``integrand_on(c)`` maps 1-D node arrays to the integrand over component
    c's support, its density included; ``_gauss_kronrod`` integrates it,
    first panels split at ``points``.  Raises ``QuadratureError`` when a
    component's error estimate exceeds 1e-8.  The logistic and sigmoid risks
    and ``expectation`` integrate here, starting from their atoms' part.
    """
    error = 0.0
    for c in components:
        law = c.law
        val, err = _gauss_kronrod(integrand_on(c), law.lo, law.hi, points)
        if err > _QUAD_ABS_TOL:
            raise QuadratureError(
                f"quadrature error {err:.2e} above tolerance {_QUAD_ABS_TOL:.0e} on [{law.lo}, {law.hi}]"
            )
        total += c.weight * val
        error += c.weight * err
    return total, error


def _meeting(dist: LabeledDistribution, c) -> list:
    """The continuous components of dist whose support meets component c's,
    c included: the others' densities are exact zeros on c's support."""
    return [o for o in dist.continuous() if o.law.lo <= c.law.hi and c.law.lo <= o.law.hi]


def expectation(dist: LabeledDistribution, integrand, points=(), with_error: bool = False):
    """E_X[integrand(x, eta(x))]: atoms summed exactly, continuous components
    integrated by ``_integrate_continuous`` (absolute tolerance 1e-10).

    integrand maps 1-D float arrays (x, eta(x)) to the integrand's values
    there, an array of the same shape.  It is called once for all atoms and
    once per quadrature round of each continuous component.  ``points``
    marks known integrand kinks and discontinuities; the support ends of the
    continuous components, where eta jumps, are marked too.  Raises
    ``QuadratureError`` when a component's error estimate exceeds 1e-8.  With
    ``with_error`` returns (value, error), the error being the components'
    estimates weighted like their values.
    """
    value, error = _expectation(dist, integrand, points, dist.continuous())
    return (value, error) if with_error else value


def _expectation(dist: LabeledDistribution, integrand, points, components) -> tuple:
    """(value, error) of ``expectation`` with only ``components`` of dist's
    continuous components integrated, the atoms summed; the caller accounts
    for the others (E[C*] adds their closed forms, or nothing)."""
    total = 0.0
    atoms = dist.atoms()
    if atoms:
        xs = np.array([c.law.x for c in atoms])
        if all(c.law.x in dist._atom_eta for c in atoms):
            # at an atom location that carries mass the atoms' eta overwrites the densities'
            eta = dist._atoms_over(np.full(xs.shape, 0.5), xs)
        else:
            eta = dist.eta(xs)
        vals = integrand(xs, eta).tolist()
        for c, v in zip(atoms, vals):
            total += c.weight * v

    def integrand_on(c):
        # eta from the components that meet this one; its own pdf is the weight
        near = _meeting(dist, c)
        if near == [c] and c.weight > 0.0:
            # alone, c makes eta its label's 0 or 1 off the atoms, and every node lies in its support
            pure = 1.0 if c.label > 0 else 0.0
            return lambda xs: integrand(xs, dist._atoms_over(np.full(xs.shape, pure), xs)) * c.law._density(xs)

        def f(xs):
            densities = [(o, o.law.pdf(xs)) for o in near]
            own = next(pdf for o, pdf in densities if o is c)
            return integrand(xs, dist._eta_from(xs, densities)) * own

        return f

    ends = [end for c in dist.continuous() for end in (c.law.lo, c.law.hi)]
    return _integrate_continuous(components, integrand_on, (*points, *ends), total)


def _law_to_json(law) -> dict:
    if isinstance(law, Atom):
        return {"kind": "atom", "x": law.x}
    return {"kind": "truncnormal", "lo": law.lo, "hi": law.hi, "mean": law.mean, "std": law.std}


def _law_from_json(obj):
    _require_object(obj, "'law'")
    kind = obj.get("kind")
    if kind == "atom":
        _require_keys(obj, {"kind", "x"}, "'law'")
        return Atom(_number(obj, "x"))
    if kind == "truncnormal":
        _require_keys(obj, {"kind", "lo", "hi", "mean", "std"}, "'law'")
        return TruncNormal(*(_number(obj, key) for key in ("lo", "hi", "mean", "std")))
    raise ValueError(f"unknown law kind {kind!r}")


def dist_to_json_dict(dist: LabeledDistribution) -> dict:
    return {
        "components": [
            {"weight": c.weight, "label": c.label, "law": _law_to_json(c.law)}
            for c in dist.components
        ]
    }


def dist_from_json_dict(obj: dict) -> LabeledDistribution:
    _require_keys(obj, {"components"}, "a distribution")
    if not isinstance(obj["components"], list):
        raise ValueError(f"'components' takes a list, got {obj['components']!r}")
    comps = []
    for entry in obj["components"]:
        _require_keys(entry, {"weight", "label", "law"}, "each of 'components'")
        law = _law_from_json(entry["law"])
        comps.append(Component(_number(entry, "weight"), _number(entry, "label", integral=True), law))
    return LabeledDistribution(tuple(comps))


def preset_distribution(name: str, sigma: float = 0.05, gamma: float = 0.1) -> LabeledDistribution:
    if name == "sect7-nonadv":
        return sect7_nonadversarial(sigma)
    if name == "sect7-adv":
        return sect7_adversarial(sigma, gamma)
    raise ValueError(f"unknown preset {name!r} (expected sect7-nonadv or sect7-adv)")


def _require_object(obj, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} takes a JSON object, got {obj!r}")


def _number(obj: dict, key: str, integral: bool = False):
    """obj[key] as a float, or as an int when integral; a bool, a string, a
    value that float() refuses and a fractional integral value raise
    ``ValueError``."""
    value = obj[key]
    try:
        number = None if isinstance(value, (bool, str)) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or integral and not number.is_integer():
        raise ValueError(f"{key!r} takes {'an integer' if integral else 'a number'}, got {value!r}")
    return int(number) if integral else number


def _require_keys(obj: dict, allowed: set, what: str) -> None:
    _require_object(obj, what)
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown keys in distribution config: {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise ValueError(f"missing keys in distribution config: {sorted(missing)}")
