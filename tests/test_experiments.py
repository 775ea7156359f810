"""Sweep runners: determinism, bound validity, stderr scaling, curve tables."""

import hashlib
import json
import math
import os

import pytest

from hcbounds.experiments import (
    SweepConfig,
    emit_transform_curves,
    nonadversarial_minimal_risks,
    run_adversarial_sweep,
    run_nonadversarial_sweep,
    write_rows_csv,
    write_rows_json,
)
from hcbounds.hypotheses import HypothesisClass, HypothesisSpec
from hcbounds.losses import hinge, logistic, quadratic, sigmoid


SMALL = SweepConfig(sigmas=(0.2, 0.05), n_samples=20_000, seed=11)


class TestSweepConfig:
    def test_sigmas_must_decrease(self):
        with pytest.raises(ValueError):
            SweepConfig(sigmas=(0.05, 0.2))

    def test_minimum_budget(self):
        with pytest.raises(ValueError):
            SweepConfig(n_samples=100)

    def test_no_beta_setting(self):
        # both sweep distributions fix beta = 1/2; it is not a setting
        with pytest.raises(TypeError):
            SweepConfig(beta=0.5)

    def test_loss_families_validated(self):
        with pytest.raises(ValueError):
            run_nonadversarial_sweep(SweepConfig(n_samples=10**4, losses=(sigmoid(1.0),)))
        with pytest.raises(ValueError):
            run_adversarial_sweep(SweepConfig(n_samples=10**4, losses=(quadratic(),)))


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
        exact_lhs, _ = risk(ZERO_ONE, h, dist, Exact(), adversarial=True, gamma=cfg.gamma)
        exact_hinge, _ = risk(hinge_loss(), h, dist, Exact(), adversarial=True, gamma=cfg.gamma)
        hinge_row = next(r for r in rows if r["loss"] == "sup-hinge")
        assert abs(hinge_row["lhs"] - exact_lhs) <= 4 * hinge_row["stderr_lhs"]
        assert abs(hinge_row["rhs"] - exact_hinge) <= 4 * hinge_row["stderr_rhs"]


class TestMinimalRiskVerification:
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
        rows = emit_transform_curves(losses=(quadratic(),), spec=spec, grid_n=101)
        tr = {r["x"]: r["y"] for r in rows if r["curve"] == "transform"}
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
# sequential, per-loss implementation the threaded cells replaced
PINNED_SWEEPS = [
    ("nonadv", run_nonadversarial_sweep, SweepConfig(n_samples=10**4, seed=11),
     "fee25c4fce2b5d419fd0d9b0209bd7d5e1f75510d8afa9d7ae5e507c9fda681d"),
    ("adv", run_adversarial_sweep, SweepConfig(n_samples=10**4, seed=11),
     "80a0b271996962846be7bd23bbdd1192b20c06ef77bbbe928a93229e9e221105"),
    ("nonadv-custom", run_nonadversarial_sweep,
     SweepConfig(n_samples=10**4, seed=11, losses=(logistic(),), w=-3.0, b=0.25),
     "5ee4847869fbe147116a45daa56994747ab128ba76583d9bfdc3220f11d62124"),
    # no rho-margin/hinge pair: frac_rho_rhs_le_hinge is NaN
    ("adv-custom", run_adversarial_sweep,
     SweepConfig(n_samples=10**4, seed=11, losses=(sigmoid(2.0), hinge()), gamma=0.2, w=-2.0, b=0.1),
     "50f1293d8cc9dca3685a6ff84a2db8d94ac949d1d95490b6d223c48bb779593e"),
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
        rows = run(cfg)
        if name == "adv-custom":
            assert all(math.isnan(r["frac_rho_rhs_le_hinge"]) for r in rows)
        assert _rows_digest(rows) == digest
