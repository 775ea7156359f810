"""Sweep runners: determinism, bound validity, stderr scaling, curve tables."""

import functools
import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcbounds.bounds import _leaf_totals, _mean_m2, _score_kernel, _squares_sum
from hcbounds.conditional import min_risk_symmetric
from hcbounds.distributions import _SAMPLE_BLOCK, expectation, sample, sect7_adversarial, sect7_nonadversarial
from hcbounds.experiments import (
    SweepConfig,
    _cell_seed,
    emit_transform_curves,
    run_adversarial_sweep,
    run_nonadversarial_sweep,
    write_rows_csv,
    write_rows_json,
)
from hcbounds.hypotheses import HypothesisClass, HypothesisSpec
from hcbounds.losses import eval_margin_loss, exponential, hinge, logistic, quadratic, rho_margin, sigmoid


SMALL = SweepConfig(sigmas=(0.2, 0.05), n_samples=20_000, seed=11)


class TestSweepConfig:
    def test_sigmas_must_decrease(self):
        with pytest.raises(ValueError):
            SweepConfig(sigmas=(0.05, 0.2))

    def test_minimum_budget(self):
        with pytest.raises(ValueError):
            SweepConfig(n_samples=100)

    @pytest.mark.parametrize("field", [{"w": math.nan}, {"w": -math.inf}, {"b": math.nan}, {"b": math.inf}])
    def test_non_finite_hypothesis_rejected(self, field):
        (name,) = field
        with pytest.raises(ValueError, match=f"finite {name}"):
            SweepConfig(**field)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_overflowing_loss_rejected(self):
        # exp(1000) overflows: the exponential row's mean is inf and its stderr NaN
        with pytest.raises(ValueError, match="exponential risk .* is not finite"):
            run_nonadversarial_sweep(SweepConfig(sigmas=(0.2,), n_samples=10**4, w=-1000.0))

    def test_no_beta_setting(self):
        # both sweep distributions fix beta = 1/2; it is not a setting
        with pytest.raises(TypeError):
            SweepConfig(beta=0.5)

    def test_no_loss_setting(self):
        # each sweep runs the paper's losses for its experiment; they are not a setting
        with pytest.raises(TypeError):
            SweepConfig(losses=(quadratic(),))


class TestNonadversarialSweep:
    def test_rows_shape_and_validity(self):
        rows = run_nonadversarial_sweep(SMALL)
        assert len(rows) == 2 * 3
        for r in rows:
            assert r["holds"]
            assert r["slack"] == pytest.approx(r["rhs"] - r["lhs"])
            assert r["stderr_lhs"] > 0 and r["stderr_rhs"] > 0

    def test_bitwise_determinism(self):
        r1 = run_nonadversarial_sweep(SMALL)
        r2 = run_nonadversarial_sweep(SMALL)
        assert r1 == r2

    def test_slack_decreases_with_sigma(self):
        rows = run_nonadversarial_sweep(
            SweepConfig(sigmas=(0.2, 0.05, 0.01), n_samples=100_000, seed=2)
        )
        by_loss = {}
        for r in rows:
            by_loss.setdefault(r["loss"], []).append(r["slack"])
        for loss, slacks in by_loss.items():
            assert slacks == sorted(slacks, reverse=True), loss

    def test_stderr_scales_as_inverse_sqrt_n(self):
        cfg_small = SweepConfig(sigmas=(0.1,), n_samples=10**4, seed=5)
        cfg_big = SweepConfig(sigmas=(0.1,), n_samples=10**6, seed=5)
        small = run_nonadversarial_sweep(cfg_small)[0]
        big = run_nonadversarial_sweep(cfg_big)[0]
        ratio = small["stderr_lhs"] / big["stderr_lhs"]
        assert abs(ratio - 10.0) <= 2.0  # 1/sqrt(n) within 20%
        ratio_rhs = small["stderr_rhs"] / big["stderr_rhs"]
        assert abs(ratio_rhs - 10.0) <= 2.0


class TestAdversarialSweep:
    def test_rows_hold_and_rho_slack_is_zero(self):
        rows = run_adversarial_sweep(SMALL)
        assert len(rows) == 2 * 3
        for r in rows:
            assert r["holds"]
            if r["loss"].startswith("sup-rho"):
                # worst-case rho-margin and robust zero-one coincide pointwise here
                assert r["slack"] == 0.0
            assert r["frac_rho_rhs_le_hinge"] == 1.0

    def test_bitwise_determinism(self):
        assert run_adversarial_sweep(SMALL) == run_adversarial_sweep(SMALL)

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            run_adversarial_sweep(SweepConfig(n_samples=10**4, gamma=0.0))

    def test_cells_match_exact_quadrature(self):
        # Monte Carlo cell values agree with exact risks within 4 stderr
        from hcbounds.bounds import Exact, risk
        from hcbounds.distributions import sect7_adversarial
        from hcbounds.hypotheses import LinearHypothesis
        from hcbounds.losses import ZERO_ONE, hinge as hinge_loss

        cfg = SweepConfig(sigmas=(0.1,), n_samples=200_000, seed=13)
        rows = run_adversarial_sweep(cfg)
        dist = sect7_adversarial(0.1, cfg.gamma)
        h = LinearHypothesis((cfg.w,), cfg.b)
        exact_lhs, _ = risk(ZERO_ONE, h, dist, Exact(), gamma=cfg.gamma)
        exact_hinge, _ = risk(hinge_loss(), h, dist, Exact(), gamma=cfg.gamma)
        hinge_row = next(r for r in rows if r["loss"] == "sup-hinge")
        assert abs(hinge_row["lhs"] - exact_lhs) <= 4 * hinge_row["stderr_lhs"]
        assert abs(hinge_row["rhs"] - exact_hinge) <= 4 * hinge_row["stderr_rhs"]


def nonadversarial_minimal_risks(sigma: float):
    """Minimal risks over all measurable functions on the standard sweep
    distribution, by quadrature of the pointwise minimal conditional risk."""
    dist = sect7_nonadversarial(sigma)
    out = {"zero-one": expectation(dist, lambda x, e: np.minimum(e, 1.0 - e))}
    for loss in (quadratic(), logistic(), exponential()):
        out[loss.label()] = expectation(dist, lambda x, e, _l=loss: min_risk_symmetric(_l, math.inf, e))
    return out


class TestMinimalRiskVerification:
    """Taking the unrestricted class's minimal risks as 0 in the sweep is sound."""

    def test_minimal_risks_vanish_at_small_sigma(self):
        for sigma in (0.05, 0.02):
            vals = nonadversarial_minimal_risks(sigma)
            for name, val in vals.items():
                assert val <= 1e-3, (sigma, name)


class TestTransformCurves:
    def test_default_losses_and_grid(self):
        rows = emit_transform_curves(grid_n=101)
        assert {r["curve"] for r in rows} == {"surrogate", "transform", "inverse"}
        assert len({r["loss"] for r in rows}) == 6

    def test_inverse_curves_pass_through_origin(self):
        rows = emit_transform_curves(grid_n=101)
        for r in rows:
            if r["curve"] == "inverse" and r["x"] == 0.0:
                assert r["y"] == pytest.approx(0.0, abs=1e-12)

    def test_sigmoid_inverse_is_scaled_line(self):
        rows = emit_transform_curves(grid_n=101)
        slope = 1.0 / math.tanh(0.8)
        pts = [r for r in rows if r["loss"] == "sigmoid(k=1)" and r["curve"] == "inverse"]
        for r in pts:
            assert r["y"] == pytest.approx(slope * r["x"], abs=1e-12)

    def test_hinge_inverse_slope(self):
        rows = emit_transform_curves(grid_n=101)
        pts = [r for r in rows if r["loss"] == "hinge" and r["curve"] == "inverse" and r["x"] > 0]
        for r in pts:
            assert r["y"] / r["x"] == pytest.approx(1.0 / 0.8)

    def test_custom_spec(self):
        spec = HypothesisSpec(HypothesisClass.LINEAR, W=1.0, B=0.3)
        rows = emit_transform_curves(spec=spec, grid_n=101)
        tr = {r["x"]: r["y"] for r in rows if r["loss"] == "quadratic" and r["curve"] == "transform"}
        assert tr[1.0] == pytest.approx(2 * 0.3 - 0.09)


class TestWriters:
    def test_csv_and_json_round_trip_bits(self, tmp_path):
        rows = run_nonadversarial_sweep(SMALL)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(rows, p1)
        write_rows_csv(run_nonadversarial_sweep(SMALL), p2)
        assert p1.read_bytes() == p2.read_bytes()
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        write_rows_json(rows, j1, meta={"seed": 11})
        write_rows_json(run_nonadversarial_sweep(SMALL), j2, meta={"seed": 11})
        assert j1.read_bytes() == j2.read_bytes()

    def test_csv_rounds_to_twelve_significant_digits(self, tmp_path):
        rows = [{"x": 1.0 / 3.0, "name": "r"}]
        path = tmp_path / "x.csv"
        write_rows_csv(rows, path)
        body = path.read_text().splitlines()[1]
        assert body.split(",")[0] == "0.333333333333"


def _rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True, allow_nan=True).encode()).hexdigest()


# SHA-256 of the rows (every float at full precision), pinned from the
# sequential, per-loss implementation the threaded cells replaced; the
# custom rows' digests from the fixed loss sets, once their rows matched the
# whole-array reference (``test_pinned_rows_match_whole_array_reference``)
PINNED_SWEEPS = [
    ("nonadv", run_nonadversarial_sweep, SweepConfig(n_samples=10**4, seed=11),
     "fee25c4fce2b5d419fd0d9b0209bd7d5e1f75510d8afa9d7ae5e507c9fda681d"),
    ("adv", run_adversarial_sweep, SweepConfig(n_samples=10**4, seed=11),
     "80a0b271996962846be7bd23bbdd1192b20c06ef77bbbe928a93229e9e221105"),
    ("nonadv-custom", run_nonadversarial_sweep, SweepConfig(n_samples=10**4, seed=11, w=-3.0, b=0.25),
     "53bfad183bf38906dafdf1c1a2f79bd03d82278114893e36568b7026c7765701"),
    ("adv-custom", run_adversarial_sweep, SweepConfig(n_samples=10**4, seed=11, gamma=0.2, w=-2.0, b=0.1),
     "11650fe1f820db6fd64541d8356ceee9e37b886dcbfc81ab612692effa3e9943"),
]


class TestThreadedCells:
    @pytest.fixture
    def two_cpus(self, monkeypatch):
        # two workers even on a one-CPU host, so the threaded path always runs
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return monkeypatch

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name, run, cfg, digest", PINNED_SWEEPS, ids=[p[0] for p in PINNED_SWEEPS])
    def test_rows_pinned_at_every_thread_count(self, two_cpus, threads, name, run, cfg, digest):
        two_cpus.setenv("HCB_THREADS", threads)
        assert _rows_digest(run(cfg)) == digest

    @pytest.mark.parametrize("name, run, cfg, digest", PINNED_SWEEPS, ids=[p[0] for p in PINNED_SWEEPS])
    def test_pinned_rows_match_whole_array_reference(self, name, run, cfg, digest):
        assert _row_hexes(run(cfg)) == _whole_array_rows(name.removesuffix("-custom"), cfg)


REDUCTION_KINDS = ["normal", "exp-normal", "0/1", "near-constant"]


def _reduction_values(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "exp-normal":
        return np.exp(rng.normal(size=n))
    if kind == "0/1":
        return (rng.random(n) < 0.1).astype(float)
    return rng.normal(3.0, 1e-3, n)


class TestInPlaceReduction:
    @pytest.mark.parametrize("n", [2, 3, 1000, 2**16, 2**16 + 1, 10**6])
    def test_mean_se_matches_numpy_bit_for_bit(self, monkeypatch, n):
        """The sweep cells' mean and stderr: leaf totals on two threads, a
        sum pass and a squared-deviation pass, each set from its own array."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rng = np.random.default_rng(n)
        sets = (np.exp(rng.normal(size=n)), (rng.random(n) < 0.1).astype(float), rng.normal(3.0, 1e-3, n))
        means = [total / n for total in _leaf_totals(n, lambda a, b: [v[a:b].sum() for v in sets])]
        m2s = _leaf_totals(n, lambda a, b: [((v[a:b] - m) ** 2).sum() for v, m in zip(sets, means)])
        for vals, mean, m2 in zip(sets, means, m2s):
            want = (float(np.mean(vals)), float(np.std(vals, ddof=1)) / math.sqrt(n))
            got = (float(mean), math.sqrt(m2 / (n - 1)) / math.sqrt(n))
            assert [v.hex() for v in got] == [v.hex() for v in want]

    @staticmethod
    def _leaf_reduction(v):
        """(mean, M2) of v from ``_leaf_totals`` over leaf copies, then from
        ``_mean_m2`` over a copy of v, the leaves of each pass, and numpy's
        (mean, M2) over the whole array, all as float hex."""
        n, passes = v.size, ([], [])

        def leaf_sums(calls, reduce):
            def sums(start, stop):
                calls.append((start, stop))
                return [reduce(v[start:stop].copy())]

            return sums

        (total,) = _leaf_totals(n, leaf_sums(passes[0], lambda c: c.sum()))
        mean = total / n
        (m2,) = _leaf_totals(n, leaf_sums(passes[1], lambda c: _squares_sum(c, mean)))
        got = [float(mean).hex(), float(m2).hex()]
        whole = [x.hex() for x in _mean_m2(v.copy())]
        want = [x.hex() for x in (float(np.mean(v)), float(((v - v.mean()) ** 2).sum()))]
        return got, whole, want, [sorted(calls) for calls in passes]

    @pytest.mark.parametrize("kind", REDUCTION_KINDS)
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 2**16 - 1, 2**16, 2**16 + 1, 10**6, 2**20 + 5])
    def test_leaf_reduction_matches_numpy_bit_for_bit(self, monkeypatch, n, kind):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        got, whole, want, (leaves, again) = self._leaf_reduction(_reduction_values(kind, n, n))
        assert got == want and whole == want
        # both passes read the same leaves once each: at most one block, tiling [0, n)
        assert again == leaves
        if n <= _SAMPLE_BLOCK:
            assert leaves == [(0, n)]
        assert [a for a, _ in leaves] == [0] + [b for _, b in leaves[:-1]] and leaves[-1][1] == n
        assert all(b - a <= _SAMPLE_BLOCK for a, b in leaves)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3 * 2**16), kind=st.sampled_from(REDUCTION_KINDS), seed=st.integers(0, 2**32 - 1))
    def test_leaf_reduction_matches_numpy_at_any_size(self, n, kind, seed):
        got, whole, want, _ = self._leaf_reduction(_reduction_values(kind, n, seed))
        assert got == want and whole == want


# n spanning several sampling blocks, and a whole chunk plus a short one
STREAMED_N = [3 * _SAMPLE_BLOCK + 17, (1 << 20) + 5]
STREAMED_SWEEPS = {"nonadv": run_nonadversarial_sweep, "adv": run_adversarial_sweep}


@functools.lru_cache(maxsize=None)
def _whole_array_rows(kind, cfg):
    """Each row's (lhs, rhs, stderrs, frac) from whole arrays: ``sample``,
    the score kernel, and ``np.mean``/``np.std`` over n-sized arrays."""
    adversarial, n = kind == "adv", cfg.n_samples
    losses = (rho_margin(1.0), hinge(), sigmoid(1.0)) if adversarial else (quadratic(), logistic(), exponential())
    rows = STREAMED_SWEEPS[kind](SweepConfig(sigmas=cfg.sigmas[:1], n_samples=10**4))
    mults = [r.get("multiplier", 1.0) for r in rows]
    out = []
    for i, sigma in enumerate(cfg.sigmas):
        dist = sect7_adversarial(sigma, cfg.gamma) if adversarial else sect7_nonadversarial(sigma)
        xs, ys = sample(dist, n, _cell_seed(cfg.seed, i))
        err, arg = _score_kernel(cfg.w, cfg.b, xs, ys, cfg.gamma if adversarial else 0.0)
        err = err.astype(float)
        lhs, se_lhs = np.mean(err), np.std(err, ddof=1) / math.sqrt(n)
        vals = [eval_margin_loss(loss, arg) for loss in losses]
        frac = np.mean(vals[0] <= vals[1] + 1e-12) if adversarial else None
        for v, mult in zip(vals, mults):
            row = (lhs, mult * np.mean(v), se_lhs, mult * (np.std(v, ddof=1) / math.sqrt(n)))
            out.append([float(x).hex() for x in row] + ([float(frac).hex()] if adversarial else []))
    return out


def _row_hexes(rows):
    keys = ["lhs", "rhs", "stderr_lhs", "stderr_rhs", "frac_rho_rhs_le_hinge"]
    return [[float(r[k]).hex() for k in keys if k in r] for r in rows]


class TestStreamedCells:
    """Cells that stream their sample block by block give the rows of
    whole-array sampling and reduction, bit for bit, at every thread count."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("n", STREAMED_N)
    @pytest.mark.parametrize("kind", sorted(STREAMED_SWEEPS))
    def test_rows_match_whole_array_reference(self, monkeypatch, kind, n, threads):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("HCB_THREADS", threads)
        cfg = SweepConfig(sigmas=(0.2, 0.05, 0.01), n_samples=n, seed=8)
        assert _row_hexes(STREAMED_SWEEPS[kind](cfg)) == _whole_array_rows(kind, cfg)

    @pytest.mark.parametrize("kind", sorted(STREAMED_SWEEPS))
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_cell_memory_is_one_array_and_nothing_outlives_it(self, monkeypatch, threads, kind):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("HCB_THREADS", threads)
        run, n = STREAMED_SWEEPS[kind], (1 << 20) + 5
        run(SweepConfig(sigmas=(0.05,), n_samples=10**4, seed=3))  # first-call imports, caches and the pool
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rows = run(SweepConfig(sigmas=(0.1, 0.05), n_samples=n, seed=3))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 6
        # one cell's margins (8n bytes) and errors as bools (n bytes), and
        # each worker's block buffers: two live cells would take 2 x 9n
        assert peak - base < 1.75 * 8 * n
        # the rows alone remain: no block buffer (8 * 2^16 bytes) outlives the call
        assert current - base < 8 * _SAMPLE_BLOCK / 4
