"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria:
  1. non-adversarial tightness sweep (holds everywhere, 3x slack decay, <= 60 s)
  2. adversarial tightness sweep (same protocol, gamma = 0.1)
  3. oracle equivalence at grid_n = 4001, >= 100 instances per table row
  4. transform calculus (anchoring, continuity, convexity, inverses)
  5. discrete convex-Psi verification on random finite-support distributions
  6. constructive no-guarantee demonstration for worst-case convex/sigmoid losses
  7. unrestricted-class recovery of the classical excess-error forms
  8. bit-identical sweep reruns
"""

import math
import time

import numpy as np
import pytest

from hcbounds.bounds import negative_result_demo, verify_psi_bound_discrete
from hcbounds.distributions import LabeledDistribution
from hcbounds.experiments import (
    SweepConfig,
    run_adversarial_sweep,
    run_nonadversarial_sweep,
    write_rows_csv,
    write_rows_json,
)
from hcbounds.hypotheses import HypothesisClass, HypothesisSpec, LinearHypothesis
from hcbounds.losses import exponential, hinge, logistic, quadratic, rho_margin, sigmoid
from hcbounds.oracle_check import run_oracle_checks
from hcbounds.transforms import invert_numerically, select_transform, transform, transform_inverse
from test_transforms import scaled

LIN = HypothesisClass.LINEAR
RELU = HypothesisClass.ONE_HIDDEN_RELU
ALL = HypothesisClass.ALL
ALL_LOSSES = [hinge(), logistic(), exponential(), quadratic(), sigmoid(1.0), rho_margin(1.0)]
EXACT_INVERSE = {"hinge", "quadratic", "sigmoid(k=1)", "rho-margin(rho=1)"}


def _announce(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _check_sweep(rows, sigmas, losses_n):
    by_loss = {}
    for r in rows:
        assert r["slack"] >= -3.0 * (r["stderr_lhs"] + r["stderr_rhs"])
        assert r["holds"]
        by_loss.setdefault(r["loss"], {})[r["sigma"]] = r["slack"]
    assert len(by_loss) == losses_n
    worst_ratio = 0.0
    for loss, slacks in by_loss.items():
        start, end = slacks[sigmas[0]], slacks[sigmas[-1]]
        assert end <= start / 3.0, (loss, start, end)
        worst_ratio = max(worst_ratio, end / start if start > 0 else 0.0)
    return worst_ratio


def test_criterion_1_nonadversarial_tightness():
    sigmas = (0.2, 0.1, 0.05, 0.02, 0.01)
    cfg = SweepConfig(sigmas=sigmas, n_samples=10**6, seed=20260808, w=-5.0, b=0.0)
    t0 = time.perf_counter()
    rows = run_nonadversarial_sweep(cfg)
    elapsed = time.perf_counter() - t0
    worst = _check_sweep(rows, sigmas, losses_n=3)
    _announce(
        "criterion 1 (non-adversarial tightness)",
        elapsed <= 60.0,
        f"bounds hold at every sigma, slack(0.01)/slack(0.2) <= {worst:.3f} "
        f"(decay >= 3x required), runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_2_adversarial_tightness():
    sigmas = (0.2, 0.1, 0.05, 0.02, 0.01)
    cfg = SweepConfig(sigmas=sigmas, n_samples=10**6, seed=20260808, w=-5.0, b=0.0, gamma=0.1)
    t0 = time.perf_counter()
    rows = run_adversarial_sweep(cfg)
    elapsed = time.perf_counter() - t0
    worst = _check_sweep(rows, sigmas, losses_n=3)
    _announce(
        "criterion 2 (adversarial tightness)",
        elapsed <= 60.0,
        f"robust bounds hold at every sigma, worst decay ratio {worst:.3f}, "
        f"runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_3_oracle_equivalence():
    rows = run_oracle_checks(grid_n=4001, instances=100, seed=1)

    def worst(*names):  # np.max keeps a NaN deviation
        return float(np.max([dev for r in rows for name, (dev, _) in r.checks.items() if name in names]))

    # the closed forms' deviations: every min-risk check and the ReLU row's bracket violation
    worst_min, worst_trans = worst("min-risk", "bracket"), worst("transform")
    ok = all(r.passed for r in rows)
    _announce(
        "criterion 3 (oracle equivalence, 100 instances/row at grid_n=4001)",
        ok and worst_min <= 2e-3 and worst_trans <= 2e-3,
        f"max |closed-form - oracle| = {worst_min:.2e}, "
        f"max |transform - constrained oracle gap| = {worst_trans:.2e} (tol 2e-3)",
    )


def _forward_transforms_in_scope():
    cases = []
    specs = [
        HypothesisSpec(LIN, W=1.0, B=0.8),
        HypothesisSpec(LIN, W=1.0, B=0.5),
        HypothesisSpec(LIN, W=1.0, B=2.0),
        HypothesisSpec(LIN, W=1.0, B=math.inf),
        HypothesisSpec(RELU, W=1.0, B=0.4, Lambda=1.5),
        HypothesisSpec(ALL),
    ]
    for loss in ALL_LOSSES:
        for spec in specs:
            cases.append((loss, spec, transform(loss, spec)))
    adv_lin = HypothesisSpec(LIN, W=1.0, B=0.8, gamma=0.1)
    adv_relu = HypothesisSpec(RELU, W=1.0, B=0.4, Lambda=1.5, gamma=0.1)
    cases.append((rho_margin(1.0), adv_lin, select_transform(rho_margin(1.0), adv_lin)[0]))
    cases.append((rho_margin(1.0), adv_relu, select_transform(rho_margin(1.0), adv_relu)[0]))
    for beta in (0.25, 0.5):
        for loss in (quadratic(), logistic(), exponential()):
            cases.append((loss, HypothesisSpec(ALL), select_transform(loss, HypothesisSpec(ALL), beta)[0]))
        for loss in (hinge(), sigmoid(1.0)):
            cases.append((loss, adv_lin, select_transform(loss, adv_lin, beta)[0]))
    return cases


def test_criterion_4_transform_calculus():
    rng = np.random.default_rng(44)
    checked = 0
    for loss, spec, T in _forward_transforms_in_scope():
        assert float(T(0.0)) == pytest.approx(0.0, abs=1e-15)
        for knot, left, right in zip(T.breakpoints[1:-1], T.segments, T.segments[1:]):
            assert abs(float(left(knot)) - float(right(knot))) <= 1e-12
        ts = np.linspace(0.0, 1.0, 257)
        vals = T(ts)
        assert np.all(np.diff(vals) >= -1e-12)
        a, b = rng.uniform(0, 1, 400), rng.uniform(0, 1, 400)
        assert np.all(T((a + b) / 2.0) <= 0.5 * (T(a) + T(b)) + 1e-12)
        checked += 1
    # inverse calculus on the six standard losses
    grid = np.linspace(0.0, 1.0, 101)
    for loss in ALL_LOSSES:
        for spec in (HypothesisSpec(LIN, W=1.0, B=0.8), HypothesisSpec(LIN, W=1.0, B=math.inf)):
            fwd = transform(loss, spec)
            inv = transform_inverse(loss, spec)
            if loss.label() in EXACT_INVERSE:
                for t in grid:
                    assert float(inv(float(fwd(float(t))))) == pytest.approx(float(t), abs=1e-9)
            else:
                # one array bisection per grid; each element is the scalar call's
                assert invert_numerically(fwd, fwd(grid)) == pytest.approx(grid, abs=1e-9)
                top = float(fwd(1.0))
                dom_grid = np.linspace(top * 1e-6, top, 1000)
                assert np.all(inv(dom_grid) >= invert_numerically(fwd, dom_grid) - 1e-9)
    _announce(
        "criterion 4 (transform calculus)",
        True,
        f"{checked} forward transforms pass anchoring/continuity(1e-12)/convexity(1e-12)/"
        "monotonicity; inverse round-trips within 1e-9; relaxed inverses dominate "
        "bisection-exact inverses on a 1000-point grid",
    )


def test_criterion_5_discrete_psi_verification():
    rng = np.random.default_rng(55)
    worst = -math.inf
    for trial in range(50):
        k = int(rng.integers(1, 6))
        ws = rng.dirichlet(np.ones(k))
        dist = LabeledDistribution.from_atoms(
            tuple((float(rng.uniform(-1, 1)), float(ws[j]), float(rng.uniform(0, 1))) for j in range(k))
        )
        spec = HypothesisSpec(LIN, W=1.0, B=float(rng.uniform(0.2, 1.5)))
        hyps = [
            LinearHypothesis(
                (float(rng.uniform(-spec.W, spec.W)),), float(rng.uniform(-spec.B, spec.B))
            )
            for _ in range(20)
        ]
        loss = ALL_LOSSES[trial % len(ALL_LOSSES)]
        res = verify_psi_bound_discrete(dist, loss, spec, transform(loss, spec), hyps)
        assert res.precondition_ok and res.holds
        worst = max(worst, res.max_bound_slack)
    # constructed violation: doubled transform fails the pointwise condition
    dist = LabeledDistribution.from_atoms(((0.2, 0.6, 0.9), (0.7, 0.4, 0.2)))
    spec = HypothesisSpec(LIN, W=1.0, B=0.5)
    control = verify_psi_bound_discrete(
        dist, hinge(), spec, scaled(transform(hinge(), spec), 2.0), [LinearHypothesis((1.0,), -0.21)]
    )
    _announce(
        "criterion 5 (discrete convex-Psi verification)",
        worst <= 1e-10 and not control.precondition_ok,
        f"50 random finite-support distributions x 20 hypotheses verified exactly "
        f"(max slack {worst:.1e} <= 1e-10); constructed violation flagged at "
        f"location {control.violations[0][0]}",
    )


def test_criterion_6_negative_results():
    spec = HypothesisSpec(LIN, W=1.0, B=1.0, gamma=0.1)
    for loss in (hinge(), logistic(), exponential(), quadratic(), sigmoid(1.0)):
        demo = negative_result_demo(loss, spec)
        assert demo.surrogate_estimation_error == 0.0
        assert demo.target_estimation_error == 0.5
        assert demo.r_target_star == 0.5
        assert demo.oracle_surrogate_star == pytest.approx(demo.r_surrogate_star, abs=2e-3)
    _announce(
        "criterion 6 (no-guarantee demonstrations)",
        True,
        "singleton eta=1/2 construction gives surrogate estimation error 0 and "
        "target estimation error exactly 1/2 for all five worst-case surrogates",
    )


def test_criterion_7_unrestricted_recovery():
    # logistic/exponential at B=inf: sqrt(2t) small-argument inverse branch
    for loss in (logistic(), exponential()):
        inv = transform_inverse(loss, HypothesisSpec(LIN, W=1.0, B=math.inf))
        assert inv.relaxed
        first = inv.segments[0]
        assert first.kind == "power"
        assert first.coefficients == pytest.approx((math.sqrt(2.0), 0.5))
        assert inv.breakpoints[1] == pytest.approx(0.5)
        second = inv.segments[1]
        assert second.kind == "affine" and second.coefficients[0] == pytest.approx(2.0)
    # hinge at B >= 1: multiplier-1 bound
    fwd = transform(hinge(), HypothesisSpec(LIN, W=1.0, B=1.5))
    assert len(fwd.segments) == 1
    assert fwd.segments[0].coefficients[0] == pytest.approx(1.0)
    # quadratic at B >= 1: sqrt inverse
    inv_q = transform_inverse(quadratic(), HypothesisSpec(LIN, W=1.0, B=1.5))
    assert inv_q.segments[0].kind == "power"
    assert inv_q.segments[0].coefficients == pytest.approx((1.0, 0.5))
    _announce(
        "criterion 7 (unrestricted-class recovery)",
        True,
        "B=inf logistic/exponential inverses expose the sqrt(2t) branch on [0, 1/2]; "
        "hinge at B>=1 has multiplier 1; quadratic at B>=1 inverts as sqrt(t)",
    )


def test_criterion_8_determinism(tmp_path):
    cfg_args = dict(sigmas=(0.2, 0.05), n_samples=50_000, seed=99)
    for name, runner in (
        ("sect7-nonadv", run_nonadversarial_sweep),
        ("sect7-adv", run_adversarial_sweep),
    ):
        rows1 = runner(SweepConfig(**cfg_args))
        rows2 = runner(SweepConfig(**cfg_args))
        assert rows1 == rows2
        c1, c2 = tmp_path / f"{name}1.csv", tmp_path / f"{name}2.csv"
        j1, j2 = tmp_path / f"{name}1.json", tmp_path / f"{name}2.json"
        write_rows_csv(rows1, c1)
        write_rows_csv(rows2, c2)
        write_rows_json(rows1, j1, meta={"seed": 99})
        write_rows_json(rows2, j2, meta={"seed": 99})
        assert c1.read_bytes() == c2.read_bytes()
        assert j1.read_bytes() == j2.read_bytes()
    _announce(
        "criterion 8 (determinism)",
        True,
        "identical configs reproduce bit-identical row lists and CSV/JSON files "
        "for both sweep experiments",
    )
