"""Mixture distributions: posteriors, sampling, quadrature, serialization."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

import hcbounds
from hcbounds import _runtime, distributions
from hcbounds.bounds import _expect_min_conditional
from hcbounds.conditional import _adversarial_bracket, _min_risk
from hcbounds.distributions import (
    _SAMPLE_BLOCK,
    _SAMPLE_CHUNK,
    Atom,
    Component,
    LabeledDistribution,
    QuadratureError,
    TruncNormal,
    _component_picker,
    _gauss_kronrod,
    _map_sample_blocks,
    _philox_at,
    dist_from_json_dict,
    dist_to_json_dict,
    expectation,
    preset_distribution,
    sample,
    sect7_adversarial,
    sect7_nonadversarial,
)
from hcbounds.experiments import SweepConfig, run_nonadversarial_sweep
from hcbounds.hypotheses import HypothesisClass, HypothesisSpec
from hcbounds.losses import ZERO_ONE, hinge, logistic, quadratic


class TestPresets:
    def test_nonadv_weights(self):
        d = sect7_nonadversarial(0.1)
        assert math.fsum(c.weight for c in d.components) == pytest.approx(1.0, abs=1e-15)
        assert sorted(c.weight for c in d.components) == pytest.approx([1 / 16, 1 / 16, 7 / 16, 7 / 16])

    def test_adv_weights(self):
        d = sect7_adversarial(0.05, 0.1)
        assert sorted(c.weight for c in d.components) == pytest.approx([1 / 16, 1 / 16, 7 / 8])

    def test_adv_support_below_gamma(self):
        d = sect7_adversarial(0.05, 0.1)
        (tn,) = [c.law for c in d.continuous()]
        assert tn.hi == pytest.approx(0.1 - 0.05)
        assert tn.hi < 0.1

    def test_nonadv_posterior_pure_regions(self):
        d = sect7_nonadversarial(0.1)
        assert d.eta(0.5) == 1.0
        assert d.eta(-0.5) == 0.0

    def test_posterior_at_atoms_is_point_mass_dominated(self):
        d = sect7_nonadversarial(0.1)
        assert d.eta(1.0) == 0.0  # the atom there carries label -1
        assert d.eta(-1.0) == 1.0

    def test_massart_condition_half(self):
        # |eta - 1/2| = 1/2 wherever the marginal puts mass
        d = sect7_nonadversarial(0.1)
        for x in np.linspace(-0.99, 0.99, 101):
            dens = sum(c.weight * c.law.pdf(float(x)) for c in d.continuous())
            if dens <= 1e-12:
                continue
            assert abs(d.eta(float(x)) - 0.5) == pytest.approx(0.5)

    def test_mirror_symmetry(self):
        d = sect7_nonadversarial(0.15)

        def density(x):
            return sum(c.weight * c.law.pdf(x) for c in d.continuous())

        for x in np.linspace(0.01, 0.99, 37):
            assert density(x) == pytest.approx(density(-x), abs=1e-12)
            assert d.eta(float(x)) == pytest.approx(1.0 - d.eta(float(-x)), abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sect7_nonadversarial(1.0)
        with pytest.raises(ValueError):
            sect7_adversarial(1.5, 0.1)

    def test_preset_lookup(self):
        assert preset_distribution("sect7-nonadv", sigma=0.1).eta(0.5) == 1.0
        with pytest.raises(ValueError):
            preset_distribution("nope")


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LabeledDistribution((Component(0.5, 1, Atom(0.0)),))

    def test_support_bounds(self):
        with pytest.raises(ValueError):
            LabeledDistribution((Component(1.0, 1, Atom(1.5)),))
        with pytest.raises(ValueError):
            LabeledDistribution((Component(1.0, 1, TruncNormal(-2.0, 0.5, 0.0, 0.1)),))

    def test_truncnormal_needs_ordered_support(self):
        with pytest.raises(ValueError):
            TruncNormal(0.5, 0.5, 0.0, 0.1)

    def test_truncnormal_needs_positive_mass(self):
        # [0.5, 1] lies 50 standard deviations above the mean: the mass underflows
        with pytest.raises(ValueError, match="no floating-point mass"):
            TruncNormal(0.5, 1.0, 0.0, 0.01)

    @pytest.mark.parametrize("std", [0.1, 0.08, 0.06])
    def test_far_upper_tail(self, std):
        # [0.5, 1] lies 5 to 8.3 standard deviations above the mean, where
        # ndtr(b) - ndtr(a) cancels (at std 0.06 to 0); upper-tail masses do not
        law = TruncNormal(0.5, 1.0, 0.0, std)
        mass = ndtr(-0.5 / std) - ndtr(-1.0 / std)
        assert law._mass == pytest.approx(mass, rel=1e-12, abs=0.0)
        xs = np.linspace(0.5, 1.0, 11)
        want = (ndtr(-0.5 / std) - ndtr(-xs / std)) / mass
        np.testing.assert_allclose(law.cdf(xs), want, rtol=1e-12, atol=0.0)
        u = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(law.cdf(law.ppf(u)), u, rtol=0.0, atol=1e-12)
        assert law.cdf(law.ppf(0.5)) == pytest.approx(0.5, abs=1e-12)

    # a lower law, an upper tail, and one straddling its mean
    @pytest.mark.parametrize(
        "law", [TruncNormal(-1.0, -0.05, -0.05, 0.05), TruncNormal(0.5, 1.0, 0.0, 0.1), TruncNormal(-1.0, 1.0, 0.2, 0.3)]
    )
    def test_ppf_in_place_keeps_the_bits(self, law):
        u = np.concatenate(([0.0, 5e-324, 0.5, np.nextafter(1.0, 0.0)], np.random.default_rng(2).random(1000)))
        want = law.ppf(u)
        buf = u.copy()
        assert law.ppf(buf, out=buf) is buf
        assert np.array_equal(buf.view(np.uint64), want.view(np.uint64))
        assert law.ppf(0.5) == want[2]


class TestSampling:
    def test_deterministic_given_seed(self):
        d = sect7_nonadversarial(0.1)
        x1, y1 = sample(d, 50_000, seed=123)
        x2, y2 = sample(d, 50_000, seed=123)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        x3, _ = sample(d, 50_000, seed=124)
        assert not np.array_equal(x1, x3)

    # the uint64 key would truncate a float or bool seed, so 1.5 and True drew seed 1's stream
    @pytest.mark.parametrize("n,seed", [(1000, 1.5), (1000, True), (1000, np.float64(1.0)), (1000.0, 1), (True, 1)])
    def test_non_integer_n_or_seed_refused(self, n, seed):
        with pytest.raises(ValueError, match="must be an integer"):
            _map_sample_blocks(sect7_nonadversarial(0.1), n, seed, lambda *block: None)

    def test_fractional_seed_refused_by_sample(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample(sect7_nonadversarial(0.1), 1000, 1.5)

    @pytest.mark.parametrize("n", [1000.5, 1000.0, True])
    def test_non_integer_n_refused_by_sample(self, n):
        # before the output arrays are allocated: np.empty(1000.5) raises TypeError
        with pytest.raises(ValueError, match="sample size n must be an integer"):
            sample(sect7_nonadversarial(0.1), n, 1)

    def test_numpy_integer_seed_is_the_int_seed(self):
        d = sect7_nonadversarial(0.1)
        x, y = sample(d, 70_000, 5)
        for seed in (np.int64(5), np.uint64(5), np.int8(5)):
            xs, ys = sample(d, np.int64(70_000), seed)
            assert xs.tobytes() == x.tobytes() and ys.tobytes() == y.tobytes()

    def test_component_frequencies_within_binomial_ci(self):
        d = sect7_nonadversarial(0.1)
        n = 10**6
        xs, ys = sample(d, n, seed=5)
        for (value, p) in ((1.0, 1 / 16), (-1.0, 1 / 16)):
            freq = float(np.mean(xs == value))
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 4 * se
        p_pos = 0.5
        se = math.sqrt(p_pos * (1 - p_pos) / n)
        assert abs(float(np.mean(ys == 1)) - p_pos) <= 4 * se

    def test_truncnormal_moment(self):
        d = sect7_nonadversarial(0.1)
        n = 10**6
        xs, ys = sample(d, n, seed=6)
        mask = (ys == 1) & (xs != -1.0)
        # the mean by quadrature of x over the component alone, not by sampling
        law = TruncNormal(0.1, 1.0, 0.1, 0.1)
        mean = expectation(LabeledDistribution((Component(1.0, 1, law),)), lambda x, e: x)
        emp = float(xs[mask].mean())
        var = float(xs[mask].var())
        se = math.sqrt(var / mask.sum())
        assert abs(emp - mean) <= 4 * se

    def test_samples_stay_in_support(self):
        d = sect7_adversarial(0.05, 0.1)
        xs, ys = sample(d, 200_000, seed=8)
        cont = xs[(xs != 1.0) & (xs != -1.0)]
        assert cont.max() <= 0.05 + 1e-12
        assert cont.min() >= -1.0 - 1e-12

    def test_crosses_chunk_boundary(self):
        d = sect7_nonadversarial(0.2)
        n = (1 << 20) + 17
        xs, ys = sample(d, n, seed=9)
        assert len(xs) == n == len(ys)

    # SHA-256 of xs then ys bytes at n spanning two chunks, pinned from the
    # sampler before it gathered labels and locations per chunk: the Philox
    # stream, its draw order and every float operation must stay as they are
    @pytest.mark.parametrize(
        "name, seed, digest",
        [
            ("nonadv", 21, "78ffafe40c39bcd0302534614283e36b77d5ca69a76f39ecfedf5dd26d6b930b"),
            ("adv", 22, "c26068054104f787c526e56324f633bf21cfe5005ec4b5f26d61d6830c9727fe"),
            ("finite", 23, "58c2398e124894d82fc834759ba98f8ab16d6901da0035bda3cf57939f4fdfad"),
        ],
    )
    def test_output_pinned(self, name, seed, digest):
        etas = (0.0, 0.1, 0.25, 0.5, 1.0, 0.9, 0.3, 0.6, 0.75, 0.05, 0.4, 1.0)
        # sigmas whose truncated normals have a mass that is not exactly 1/2,
        # so that a reordered ppf changes the output
        dists = {
            "nonadv": sect7_nonadversarial(0.2),
            "adv": sect7_adversarial(0.5, 0.1),
            # 12 atoms, 21 labeled components (eta in {0, 1} drops one side)
            "finite": LabeledDistribution.from_atoms(
                tuple((float(x), 1.0 / 12.0, e) for x, e in zip(np.linspace(-1.0, 1.0, 12), etas))
            ),
        }
        xs, ys = sample(dists[name], _SAMPLE_CHUNK + 4097, seed)
        assert xs.dtype == np.float64 and ys.dtype == np.int64
        assert hashlib.sha256(xs.tobytes() + ys.tobytes()).hexdigest() == digest


def _drawn_normal_mixture(seed):
    """2-5 truncated normals with drawn weights, labels, supports and
    parameters, each within two standard deviations of its support."""
    rng = np.random.default_rng([0x4B5, seed])
    k = int(rng.integers(2, 6))
    weights = rng.dirichlet(np.ones(k))
    comps = []
    for w, y in zip(weights, rng.choice([-1, 1], size=k)):
        lo = float(rng.uniform(-1.0, 0.8))
        hi = min(1.0, lo + float(rng.uniform(0.05, 1.5)))
        std = float(rng.uniform(0.05, 1.0))
        mean = float(rng.uniform(lo - 2 * std, hi + 2 * std))
        comps.append(Component(float(w), int(y), TruncNormal(lo, hi, mean, std)))
    return LabeledDistribution(tuple(comps))


KS_N = 3 * _SAMPLE_BLOCK + 17  # four sampling blocks, the last one short
KS_DISTS = {
    "nonadv": sect7_nonadversarial(0.2),
    "adv": sect7_adversarial(0.5, 0.1),
    **{f"drawn-{seed}": _drawn_normal_mixture(seed) for seed in range(6)},
}


def _ks_pvalues(dist, n, seed) -> list:
    """For each label, the Kolmogorov-Smirnov p-value of the positions that
    ``sample`` drew with it, off its atoms, against the weighted cdf of its
    truncated normals: the sampler's law, checked by ``TruncNormal.cdf``
    alone, not by the ppf or the stream layout that drew them."""
    xs, ys = sample(dist, n, seed)
    out = []
    for label in (-1, 1):
        comps = [c for c in dist.continuous() if c.label == label and c.weight > 0.0]
        if comps:
            atoms = [c.law.x for c in dist.atoms() if c.label == label]
            drawn = xs[(ys == label) & ~np.isin(xs, atoms)]
            total = math.fsum(c.weight for c in comps)
            out.append(kstest(drawn, lambda x: sum(c.weight * c.law.cdf(x) for c in comps) / total).pvalue)
    return out


class TestSamplerLaw:
    """Drawn positions follow their components' laws, per label, over
    several sampling blocks."""

    @pytest.mark.parametrize("name", sorted(KS_DISTS))
    def test_positions_match_the_components_cdf(self, name):
        pvalues = _ks_pvalues(KS_DISTS[name], KS_N, 31)
        assert pvalues and min(pvalues) > 1e-3, pvalues


_ETAS = (0.0, 0.1, 0.25, 0.5, 1.0, 0.9, 0.3, 0.6, 0.75, 0.05, 0.4, 1.0)
# the three distributions of TestSampling.test_output_pinned
PINNED_DISTS = {
    "nonadv": sect7_nonadversarial(0.2),
    "adv": sect7_adversarial(0.5, 0.1),
    # 12 atoms, 21 labeled components (eta in {0, 1} drops one side)
    "finite": LabeledDistribution.from_atoms(
        tuple((float(x), 1.0 / 12.0, e) for x, e in zip(np.linspace(-1.0, 1.0, 12), _ETAS))
    ),
}


def _reference_sample(dist, n, seed):
    """The sequential sampler: one pass per chunk, boolean-mask ppf scatter."""
    comps = dist.components
    cum = np.cumsum([c.weight for c in comps])
    cum[-1] = np.inf  # a draw past the rounded total belongs to the last component
    labels = np.array([c.label for c in comps], dtype=np.int64)
    # continuous components get a placeholder location, overwritten by their ppf
    locs = np.array([c.law.x if isinstance(c.law, Atom) else 0.0 for c in comps])
    xs = np.empty(n, dtype=float)
    ys = np.empty(n, dtype=np.int64)
    for chunk, start in enumerate(range(0, n, _SAMPLE_CHUNK)):
        m = min(_SAMPLE_CHUNK, n - start)
        x_out, y_out = xs[start : start + m], ys[start : start + m]
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
        u = rng.random(m)  # component draws
        idx = np.searchsorted(cum, u, side="right")
        rng.random(out=u)  # position draws, same stream order, same buffer
        np.take(locs, idx, out=x_out)
        for ci, comp in enumerate(comps):
            if isinstance(comp.law, TruncNormal):
                mask = idx == ci
                x_out[mask] = comp.law.ppf(u[mask])
        del u
        np.take(labels, idx, out=y_out)
    return xs, ys


class TestBlockedSampler:
    """``sample`` cuts chunks into 2^16-draw blocks on the thread pool; its
    bytes must equal the sequential reference's at every thread count."""

    @pytest.fixture
    def four_cpus(self, monkeypatch):
        # HCB_THREADS is clamped to the CPU count; 4 lets 3 mean 3 workers
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        return monkeypatch

    @pytest.mark.parametrize(
        "n",
        [1, 3, 5, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK + 1, 10**5, 10**6,
         _SAMPLE_CHUNK + 4097, 3 * _SAMPLE_CHUNK + 7],
    )
    @pytest.mark.parametrize("name", sorted(PINNED_DISTS))
    def test_matches_sequential_reference(self, four_cpus, name, n):
        dist, seed = PINNED_DISTS[name], 1000 + n % 997
        ref_x, ref_y = _reference_sample(dist, n, seed)
        for threads in ("1", "2", "3"):
            four_cpus.setenv("HCB_THREADS", threads)
            xs, ys = sample(dist, n, seed)
            assert xs.dtype == np.float64 and ys.dtype == np.int64
            assert np.array_equal(xs.view(np.uint64), ref_x.view(np.uint64)), threads
            assert np.array_equal(ys, ref_y), threads

    @pytest.mark.parametrize("offset", [0, 1, 2, 3, 4, 5, 7, 8, 9, _SAMPLE_BLOCK + 3])
    def test_philox_at_continues_the_stream(self, offset):
        rng = np.random.Generator(np.random.Philox(key=np.array([11, 2], dtype=np.uint64)))
        whole = rng.random(offset + 10)
        got = _philox_at(11, 2, offset).random(10)
        assert np.array_equal(got.view(np.uint64), whole[offset:].view(np.uint64))

    def test_sweep_and_sample_reuse_one_pool_that_the_cap_resizes(self, four_cpus):
        made = []  # (weak reference, workers, worker threads) of each pool made

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                super().__init__(max_workers, **kwargs)
                made.append((weakref.ref(self), max_workers, self._threads))

        four_cpus.setattr(_runtime, "ThreadPoolExecutor", CountingPool)
        _runtime._pool.cache_clear()  # the next pooled call makes one
        four_cpus.setenv("HCB_THREADS", "2")
        main, n = threading.get_ident(), 2 * _SAMPLE_BLOCK + 5  # three blocks per sample
        try:
            # the cells run in turn on this thread, their blocks and leaves on the pool
            rows = run_nonadversarial_sweep(SweepConfig(sigmas=(0.2, 0.1), n_samples=n, seed=4))
            assert len(rows) == 6
            sample(sect7_nonadversarial(0.2), n, 0)
            assert [(ref() is not None, workers) for ref, workers, _ in made] == [(True, 2)]
            ran_on = set(_map_sample_blocks(sect7_nonadversarial(0.2), n, 0, lambda *_: threading.get_ident()))
            assert 1 <= len(ran_on) <= 2 and main not in ran_on
            four_cpus.setenv("HCB_THREADS", "3")
            sample(sect7_nonadversarial(0.2), n, 0)
            # the 2-worker pool is dropped, and its idle workers exit
            assert [(ref() is not None, workers) for ref, workers, _ in made] == [(False, 2), (True, 3)]
            for worker in made[0][2]:
                worker.join(timeout=10)
                assert not worker.is_alive()
        finally:
            _runtime._pool.cache_clear()


def _cumulative_weights(dist):
    cum = np.cumsum([c.weight for c in dist.components])
    cum[-1] = np.inf
    return cum


def _pick(cum, u):
    """The sampler's pick of components for draws u, into fresh buffers."""
    return _component_picker(cum)(u, np.empty(u.shape, np.intp), np.empty(u.shape, np.intp))


def _random_weights(k, seed):
    w = np.random.default_rng(seed).random(k)
    return w / w.sum()


class TestComponentPick:
    """The sampler's guide-table pick must equal ``searchsorted(side="right")``
    over the cumulative weights, ties and all, whatever the number of
    components and however their cutoffs crowd into one cell."""

    DISTS = {
        **PINNED_DISTS,
        "one-atom": LabeledDistribution((Component(1.0, 1, Atom(0.3)),)),
        "one-normal": LabeledDistribution((Component(1.0, -1, TruncNormal(-1.0, 1.0, 0.0, 0.5)),)),
        # zero-weight components repeat a cutoff, where the tie rule decides
        "zero-weights": LabeledDistribution(
            (
                Component(0.25, 1, Atom(-1.0)),
                Component(0.0, -1, Atom(0.0)),
                Component(0.0, 1, Atom(0.5)),
                Component(0.75, -1, TruncNormal(0.0, 1.0, 0.5, 0.2)),
            )
        ),
        # 400 atoms, 800 labeled components with cutoffs off every cell edge
        "many-atoms": LabeledDistribution.from_atoms(
            tuple(zip(np.linspace(-1.0, 1.0, 400), _random_weights(400, 1), np.full(400, 0.3)))
        ),
        # 299 cutoffs crowd into the first cell, so those draws search 9 steps
        "crowded": LabeledDistribution.from_atoms(
            tuple(zip(np.linspace(-1.0, 1.0, 300), [1e-9] * 299 + [1.0 - 299e-9], [1.0] * 300))
        ),
    }

    @pytest.mark.parametrize("name", sorted(DISTS))
    def test_matches_searchsorted_right(self, name):
        cum = _cumulative_weights(self.DISTS[name])
        finite = cum[np.isfinite(cum)]
        u = np.concatenate(
            (
                [0.0, 5e-324, 1e-9, np.nextafter(1.0, 0.0)],
                finite,  # u exactly on a cumulative weight
                np.nextafter(finite, 0.0),
                np.nextafter(finite, 1.0),
                np.random.default_rng(3).random(10_000),
            )
        )
        u = u[u < 1.0]
        got = _pick(cum, u)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.searchsorted(cum, u, side="right"))

    def test_u_on_a_cutoff_picks_the_next_component(self):
        cum = _cumulative_weights(self.DISTS["zero-weights"])
        # u = 0.25 lies on three cutoffs: the zero-weight components get nothing
        assert _pick(cum, np.array([0.0, 0.25])).tolist() == [0, 3]

    @pytest.mark.parametrize("name", ["one-atom", "one-normal", "zero-weights", "many-atoms", "crowded"])
    def test_samples_match_reference(self, name):
        dist = self.DISTS[name]
        n = _SAMPLE_BLOCK + 9
        xs, ys = sample(dist, n, 5)
        ref_x, ref_y = _reference_sample(dist, n, 5)
        assert np.array_equal(xs.view(np.uint64), ref_x.view(np.uint64))
        assert np.array_equal(ys, ref_y)

    @pytest.mark.parametrize("name", ["one-atom", "one-normal"])
    def test_one_component_takes_every_draw(self, name):
        dist = self.DISTS[name]
        assert _pick(_cumulative_weights(dist), np.array([0.0, 0.5])).tolist() == [0, 0]
        _, ys = sample(dist, 100, 5)
        assert (ys == dist.components[0].label).all()


class TestExpectation:
    def test_constant(self):
        d = sect7_nonadversarial(0.1)
        assert expectation(d, lambda x, e: np.ones_like(x)) == pytest.approx(1.0, abs=1e-10)

    def test_component_indicator(self):
        d = sect7_nonadversarial(0.1)
        val = expectation(d, lambda x, e: np.where(x >= 0.1, 1.0, 0.0), points=(0.1,))
        assert val == pytest.approx(7 / 16 + 1 / 16, abs=1e-8)

    def test_min_eta_is_zero(self):
        d = sect7_nonadversarial(0.1)
        assert expectation(d, lambda x, e: np.minimum(e, 1 - e)) == pytest.approx(0.0, abs=1e-8)

    def test_posterior_integrates_to_positive_mass(self):
        d = sect7_nonadversarial(0.1)
        assert expectation(d, lambda x, e: e) == pytest.approx(0.5, abs=1e-8)
        d2 = sect7_adversarial(0.05, 0.1)
        assert expectation(d2, lambda x, e: e) == pytest.approx(1 / 16, abs=1e-8)

    def test_matches_monte_carlo(self):
        d = sect7_nonadversarial(0.1)
        exact = expectation(d, lambda x, e: x * x + e)
        # eta(x) equals the +1-label indicator almost surely on this mixture
        xs, ys = sample(d, 10**6, seed=10)
        vals = xs**2 + (ys == 1)
        mc = float(vals.mean())
        se = float(vals.std(ddof=1)) / math.sqrt(len(vals))
        assert abs(mc - exact) <= 4 * se


    OVERLAPPING = dist_from_json_dict({"components": [
        {"weight": 0.3, "label": 1, "law": {"kind": "truncnormal", "lo": -0.5, "hi": 0.8, "mean": 0.1, "std": 0.3}},
        {"weight": 0.25, "label": -1, "law": {"kind": "truncnormal", "lo": 0.2, "hi": 1.0, "mean": 0.6, "std": 0.2}},
        {"weight": 0.25, "label": -1, "law": {"kind": "truncnormal", "lo": -1.0, "hi": -0.6, "mean": -0.8, "std": 0.1}},
        {"weight": 0.2, "label": 1, "law": {"kind": "atom", "x": 0.5}},
    ]})

    @pytest.mark.parametrize("name", ["sect7-nonadv", "sect7-adv", "overlapping"])
    def test_integrand_is_the_full_posterior_one_bit_for_bit(self, monkeypatch, name):
        """Every quadrature round's integrand equals integrand(xs, eta(xs)) *
        pdf(xs) over all components, although only the components whose
        support meets the integrated one enter it."""
        dist = self.OVERLAPPING if name == "overlapping" else preset_distribution(name, 0.05)
        linear = HypothesisSpec(HypothesisClass.LINEAR, W=1.0, B=0.5)
        logistic_min, quadratic_min = _min_risk(logistic(), linear), _min_risk(quadratic(), linear)
        hinge_bracket = _adversarial_bracket(hinge(), HypothesisSpec(HypothesisClass.LINEAR, W=1.0, B=0.5, gamma=0.1))
        integrands = (
            lambda x, e: np.minimum(e, 1.0 - e),
            lambda x, e: logistic_min(np.abs(x), e),
            lambda x, e: quadratic_min(np.abs(x), e),
            lambda x, e: hinge_bracket(np.abs(x), e)[0],
        )
        real, rounds = distributions._gauss_kronrod, []
        for integrand in integrands:
            laws = iter(c.law for c in dist.continuous())  # integrated in component order

            def checked(f, a, b, points=()):
                law = next(laws)
                assert (law.lo, law.hi) == (a, b)

                def both(xs):
                    got, want = f(xs), integrand(xs, dist.eta(xs)) * law.pdf(xs)
                    rounds.append(np.array_equal(got.view(np.uint64), want.view(np.uint64)))
                    return got

                return real(both, a, b, points)

            monkeypatch.setattr(distributions, "_gauss_kronrod", checked)
            expectation(dist, integrand)
        assert rounds and all(rounds)

    def test_min_eta_matches_a_dense_rule(self):
        """E[min(eta, 1 - eta)] on OVERLAPPING, from ``expectation`` and from
        the zero-one E[C*] (which integrates only the components that meet
        the other label), against a composite midpoint rule that reads only
        ``dist.eta`` and each pdf.  Its pieces end at every support end and
        where the two labels' densities cross, so the integrand is smooth on
        each and the rule's error, O(h^2), is below |D_2n - D_n|."""
        dist = self.OVERLAPPING

        def density_gap(x):
            return sum(c.label * c.weight * c.law.pdf(x) for c in dist.continuous())

        ends = sorted({-1.0, 1.0} | {end for c in dist.continuous() for end in (c.law.lo, c.law.hi)})
        crossings = []
        for a, b in zip(ends[:-1], ends[1:]):
            x = np.linspace(a, b, 1001)[1:-1]  # inside the piece: a support end is a jump
            sign = np.sign(density_gap(x))
            flips = np.flatnonzero(sign[:-1] != sign[1:])
            crossings += [brentq(density_gap, x[i], x[i + 1], xtol=1e-15) for i in flips]
        assert len(ends) == 6 and len(crossings) == 1  # -1 and 1 are support ends
        cuts = sorted(ends + crossings)

        def dense(n):
            atoms = math.fsum(c.weight * min(dist.eta(c.law.x), 1.0 - dist.eta(c.law.x)) for c in dist.atoms())
            pieces = []
            for a, b in zip(cuts[:-1], cuts[1:]):
                x = a + (np.arange(n) + 0.5) * ((b - a) / n)
                eta, pdf = dist.eta(x), sum(c.weight * c.law.pdf(x) for c in dist.continuous())
                pieces.append(math.fsum(np.minimum(eta, 1.0 - eta) * pdf) * ((b - a) / n))
            return atoms + math.fsum(pieces)

        want, coarse = dense(16000), dense(8000)
        zero_one = _expect_min_conditional(ZERO_ONE, HypothesisSpec(HypothesisClass.ALL), dist)
        for got, err in (expectation(dist, lambda x, e: np.minimum(e, 1.0 - e), with_error=True), zero_one):
            assert abs(got - want) <= abs(want - coarse) + err
        assert abs(want - coarse) <= 1e-10

    def test_error_estimate_weighted_like_the_value(self):
        d = sect7_nonadversarial(0.1)
        val, err = expectation(d, lambda x, e: x * x, with_error=True)
        assert val == expectation(d, lambda x, e: x * x)
        assert 0.0 < err <= 1e-8


class TestGaussKronrod:
    """The adaptive 21-point Gauss-Kronrod rule behind risks and E[C*]; each
    case also checks that the error estimate covers the true error."""

    @pytest.mark.parametrize("degree", range(32))
    def test_exact_for_polynomials_on_one_panel(self, monkeypatch, degree):
        calls = []

        def f(x):
            calls.append(x.size)
            return x**degree

        a, b = -0.7, 1.3
        monkeypatch.setattr(distributions, "_QUAD_EPSABS", math.inf)  # accept the first panel
        val, err = _gauss_kronrod(f, a, b)
        exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
        assert calls == [21]
        assert abs(val - exact) <= 1e-14 * max(1.0, abs(exact))  # degree 32 misses by 2.6e-14
        assert err >= abs(val - exact)

    def test_narrow_normal_mass(self):
        mean, std = 0.003, 0.01
        val, err = _gauss_kronrod(
            lambda x: np.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi)), -1.0, 1.0
        )
        exact = float(ndtr((1.0 - mean) / std) - ndtr((-1.0 - mean) / std))
        assert abs(val - exact) <= 1e-12
        assert err >= abs(val - exact)

    @pytest.mark.parametrize(
        "f, exact",
        [(lambda x: np.abs(x - 1 / 3), 10 / 9), (lambda x: (x > 1 / 3).astype(float), 2 / 3)],
        ids=["kink", "jump"],
    )
    @pytest.mark.parametrize("points", [(), (1 / 3,)], ids=["unmarked", "marked"])
    def test_kinks_and_jumps(self, f, exact, points):
        val, err = _gauss_kronrod(f, -1.0, 1.0, points)
        assert err <= 1e-10
        assert err >= abs(val - exact)
        if points:
            assert abs(val - exact) <= 1e-14

    def test_panel_cap(self):
        with pytest.raises(QuadratureError, match="more than 200 panels"):
            _gauss_kronrod(lambda x: np.sin(1e6 * x), 0.0, 1.0)

    def test_non_finite_integrand(self):
        with pytest.raises(QuadratureError, match="not finite"):
            _gauss_kronrod(lambda x: np.where(x < 0.5, x, np.inf), 0.0, 1.0)


def test_import_leaves_scipy_integrate_and_special_unloaded():
    src = str(Path(hcbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("hcbounds", "hcbounds.cli"):
        code = (
            f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.special'))))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", (module, out.stdout)


_UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _law(draw):
    if draw(st.booleans()):
        return Atom(draw(_UNIT))
    lo = draw(st.floats(-1.0, 0.999))
    hi = min(lo + draw(st.floats(1e-3, 2.0)), 1.0)
    std = draw(st.floats(1e-2, 10.0))
    mean = draw(st.floats(lo - 5.0 * std, hi + 5.0 * std))  # within 5 std: mass on [lo, hi]
    return TruncNormal(lo, hi, mean, std)


@st.composite
def _mixture(draw):
    """1-6 components of either kind, with weights n_i / sum(n) that sum to
    1 within the distribution's tolerance (zero weights included)."""
    k = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, 1000), min_size=k, max_size=k).filter(any))
    total = sum(counts)
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k))
    return LabeledDistribution(
        tuple(Component(n / total, y, draw(_law())) for n, y in zip(counts, labels))
    )


@st.composite
def _mixture_and_points(draw):
    """A drawn mixture and points to evaluate its posterior at: its atoms,
    its support ends and the doubles just outside them (zero density there
    unless another component covers them), and drawn points of [-1, 1]."""
    d = draw(_mixture())
    ends = [(c.law.lo, c.law.hi) for c in d.continuous()]
    outside = [float(np.nextafter(e, e + step)) for lo, hi in ends for e, step in ((lo, -1.0), (hi, 1.0))]
    points = [c.law.x for c in d.atoms()] + [e for pair in ends for e in pair] + outside
    return d, np.array([*points, -1.0, 0.0, 1.0, *draw(st.lists(_UNIT, max_size=30))])


def _eta_reference(d, x):
    """eta at the float x by the definition: the atoms' posterior at an atom
    location with mass, else the labels' density ratio, else 1/2."""
    pos = sum(c.weight for c in d.atoms() if c.law.x == x and c.label > 0)
    neg = sum(c.weight for c in d.atoms() if c.law.x == x and c.label < 0)
    if pos + neg > 0.0:
        return pos / (pos + neg)
    d_pos = d_neg = 0.0
    for c in d.continuous():
        if c.label > 0:
            d_pos += c.weight * c.law.pdf(x)
        else:
            d_neg += c.weight * c.law.pdf(x)
    return 0.5 if d_pos + d_neg == 0.0 else d_pos / (d_pos + d_neg)


class TestLowerTail:
    @given(
        law=_law().filter(lambda law: isinstance(law, TruncNormal)),
        xs=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=20),
        us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_mass_cdf_and_ppf_keep_the_two_tail_formulas(self, law, xs, us):
        # the normal tail at lo is computed once per law; every use of it keeps
        # the per-call formulas' values and operation order, bit for bit
        xs, us = np.array(xs), np.array(us)
        z = lambda x: (np.asarray(x, dtype=float) - law.mean) / law.std  # noqa: E731
        clipped = np.clip(xs, law.lo, law.hi)
        if law.lo > law.mean:
            mass = float(ndtr(-z(law.lo)) - ndtr(-z(law.hi)))
            cdf = (ndtr(-z(law.lo)) - ndtr(-z(clipped))) / mass
            ppf = ndtri(ndtr(-z(law.lo)) - us * mass) * -law.std + law.mean
        else:
            mass = float(ndtr(z(law.hi)) - ndtr(z(law.lo)))
            cdf = (ndtr(z(clipped)) - ndtr(z(law.lo))) / mass
            ppf = ndtri(us * mass + ndtr(z(law.lo))) * law.std + law.mean
        assert law._mass.hex() == mass.hex()
        assert law.cdf(xs).tobytes() == cdf.tobytes()
        assert law.ppf(us).tobytes() == np.clip(ppf, law.lo, law.hi).tobytes()


_GRID = np.linspace(-1.0, 1.0, 10001)
_ATOMS_ON_THE_GRID = ((0.3, 0.5, 0.6), (-0.2, 0.25, 0.1), (float(_GRID[4000]), 0.25, 0.9))


class TestArrayPosterior:
    @given(case=_mixture_and_points())
    @example(case=(sect7_nonadversarial(0.05), _GRID))
    @example(case=(sect7_adversarial(0.05), _GRID))
    # atoms only (eta is 1/2 off them), one exactly on a grid point
    @example(case=(LabeledDistribution.from_atoms(_ATOMS_ON_THE_GRID), _GRID))
    @settings(max_examples=200, deadline=None)
    def test_scalar_array_and_reference_agree_bit_for_bit(self, case):
        d, xs = case
        arr = d.eta(xs)
        assert isinstance(arr, np.ndarray) and arr.shape == xs.shape
        scalars = [d.eta(float(x)) for x in xs]
        assert all(isinstance(e, float) for e in scalars)
        assert [float(e).hex() for e in arr] == [e.hex() for e in scalars]
        assert [e.hex() for e in scalars] == [float(_eta_reference(d, float(x))).hex() for x in xs]


class TestSerialization:
    def test_round_trip(self):
        d = sect7_adversarial(0.05, 0.1)
        doc = dist_to_json_dict(d)
        again = dist_from_json_dict(json.loads(json.dumps(doc)))
        assert again == d

    @given(d=_mixture())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_of_random_mixtures(self, d):
        again = dist_from_json_dict(json.loads(json.dumps(dist_to_json_dict(d))))
        assert again == d
        assert [type(c.law) for c in again.components] == [type(c.law) for c in d.components]

    def test_unknown_keys_rejected(self):
        doc = dist_to_json_dict(sect7_nonadversarial(0.1))
        doc["extra"] = 1
        with pytest.raises(ValueError):
            dist_from_json_dict(doc)
        doc2 = dist_to_json_dict(sect7_nonadversarial(0.1))
        doc2["components"][0]["law"]["bogus"] = 2
        with pytest.raises(ValueError):
            dist_from_json_dict(doc2)


    @pytest.mark.parametrize("doc, msg", [
        (5, "a distribution takes a JSON object, got 5"),
        ({"components": 5}, "'components' takes a list, got 5"),
        ({"components": [5]}, "each of 'components' takes a JSON object, got 5"),
        ({"components": [{"weight": 1.0, "label": 1, "law": 5}]}, "'law' takes a JSON object, got 5"),
        ({"components": [{"weight": None, "label": 1, "law": {"kind": "atom", "x": 0.5}}]},
         "'weight' takes a number, got None"),
        ({"components": [{"weight": 1.0, "label": 1, "law": {"kind": "atom", "x": [0.5]}}]},
         "'x' takes a number, got [0.5]"),
        ({"components": [{"weight": 1.0, "label": 1, "law": {"kind": "truncnormal", "lo": 0, "hi": 1,
                                                              "mean": "abc", "std": 1}}]},
         "'mean' takes a number, got 'abc'"),
        ({"components": [{"weight": 1.0, "label": 1.7, "law": {"kind": "atom", "x": 0.5}}]},
         "'label' takes an integer, got 1.7"),
        ({"components": [{"weight": True, "label": 1, "law": {"kind": "atom", "x": 0.5}}]},
         "'weight' takes a number, got True"),
        ({"components": [{"weight": 1.0, "label": True, "law": {"kind": "atom", "x": 0.5}}]},
         "'label' takes an integer, got True"),
        ({"components": [{"weight": 1.0, "label": 1, "law": {"kind": "truncnormal", "lo": 0, "hi": 1,
                                                              "mean": False, "std": 1}}]},
         "'mean' takes a number, got False"),
        ({"components": [{"weight": "1.0", "label": 1, "law": {"kind": "atom", "x": 0.5}}]},
         "'weight' takes a number, got '1.0'"),
        ({"components": [{"weight": 1.0, "label": "1", "law": {"kind": "atom", "x": 0.5}}]},
         "'label' takes an integer, got '1'"),
        ({"components": [{"weight": 1.0, "label": 1, "law": {"kind": "atom", "x": "0.5"}}]},
         "'x' takes a number, got '0.5'"),
    ], ids=["number", "components-number", "component-number", "law-number", "weight-null", "atom-x-list",
            "mean-string", "label-fraction", "weight-bool", "label-bool", "mean-bool", "weight-numeric-string",
            "label-numeric-string", "atom-x-numeric-string"])
    def test_malformed_shapes_name_the_field(self, doc, msg):
        with pytest.raises(ValueError, match=re.escape(msg)):
            dist_from_json_dict(doc)

    def test_integral_float_label_is_read_as_an_int(self):
        doc = {"components": [{"weight": 1.0, "label": -1.0, "law": {"kind": "atom", "x": 0.5}}]}
        (c,) = dist_from_json_dict(doc).components
        assert c.label == -1 and type(c.label) is int


class TestFromAtoms:
    def test_recovers_eta(self):
        d = LabeledDistribution.from_atoms(((0.5, 0.4, 0.8), (-0.25, 0.6, 0.0)))
        assert not d.continuous()
        assert d.eta(0.5) == pytest.approx(0.8)
        assert d.eta(-0.25) == 0.0
        assert math.fsum(c.weight for c in d.components) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "atoms",
        [
            ((0.0, 0.7, 0.5),),
            ((0.0, 1.0, 1.5),),
            ((0.2, math.nan, 0.5), (0.1, 1.0, 0.5)),  # the NaN triple must not drop out
            ((0.0, 1.0, -0.1),),
            ((0.0, 1.0, math.nan),),
            ((0.5, 1.0, math.nan), (0.5, 0.0, 0.5)),
            ((2.0, 0.0, 0.5), (0.0, 1.0, 0.5)),  # a zero-weight triple is still checked
        ],
    )
    def test_validation(self, atoms):
        with pytest.raises(ValueError):
            LabeledDistribution.from_atoms(atoms)


# input checks, one case each: (call, message fragment)
_REFUSALS = {
    "truncnormal std 0": (lambda: TruncNormal(0.0, 1.0, 0.5, 0.0), "std must be positive"),
    "truncnormal std nan": (lambda: TruncNormal(0.0, 1.0, 0.5, math.nan), "std must be positive"),
    "label 0": (lambda: Component(1.0, 0, Atom(0.0)), "label must be -1 or \\+1"),
    "empty mixture": (lambda: LabeledDistribution(()), "at least one component"),
    "unknown law": (lambda: LabeledDistribution((Component(1.0, 1, "uniform"),)), "unknown law"),
    "sect7-adv sigma 0": (lambda: sect7_adversarial(0.0), "sigma must be positive"),
    "sect7-adv sigma -0.1": (lambda: sect7_adversarial(-0.1), "sigma must be positive"),
    "blocks n 0": (lambda: _map_sample_blocks(sect7_nonadversarial(0.1), 0, 1, print), "need n >= 1"),
    "blocks seed 2^64": (lambda: _map_sample_blocks(sect7_nonadversarial(0.1), 10, 2**64, print), "unsigned 64-bit"),
    "blocks seed -1": (lambda: _map_sample_blocks(sect7_nonadversarial(0.1), 10, -1, print), "unsigned 64-bit"),
    "json law kind": (lambda: dist_from_json_dict(
        {"components": [{"weight": 1.0, "label": 1, "law": {"kind": "uniform", "x": 0.0}}]}), "unknown law kind"),
    "json missing law key": (lambda: dist_from_json_dict(
        {"components": [{"weight": 1.0, "label": 1, "law": {"kind": "truncnormal", "lo": 0.0, "hi": 1.0}}]}),
        "missing keys"),
    "json missing component key": (lambda: dist_from_json_dict({"components": [{"weight": 1.0, "label": 1}]}),
                                   "missing keys"),
}


class TestInputChecks:
    @pytest.mark.parametrize("name", sorted(_REFUSALS))
    def test_refused(self, name):
        call, match = _REFUSALS[name]
        with pytest.raises(ValueError, match=match):
            call()

    def test_zero_weight_atom_adds_nothing_to_an_expectation(self):
        # a massless atom has no eta of its own, so the atoms' eta comes from dist.eta
        law = TruncNormal(-1.0, 0.5, 0.0, 0.3)
        with_it = LabeledDistribution((Component(0.6, -1, law), Component(0.4, 1, Atom(0.8)),
                                       Component(0.0, 1, Atom(-0.2))))
        without = LabeledDistribution((Component(0.6, -1, law), Component(0.4, 1, Atom(0.8))))
        integrand = lambda x, e: np.minimum(e, 1.0 - e) + x * x + e
        assert expectation(with_it, integrand) == expectation(without, integrand)
