"""Oracle-check rows: argument checks, row field types, the worst-instance
field, the ReLU bracket row and its network sampler."""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from hcbounds import oracle_check
from hcbounds.cli import main
from hcbounds.conditional import (
    ConditionalPoint,
    Constraint,
    _interval_risk,
    brute_force_inf,
    min_conditional_risk,
    min_conditional_risk_adversarial,
)
from hcbounds.hypotheses import HypothesisClass, HypothesisSpec
from hcbounds.losses import LossFamily, MarginLoss, rho_margin
from hcbounds.oracle_check import (
    OracleCheckRow,
    _tolerance,
    _relu_ball_extrema,
    _sample_networks,
    _sample_spec,
    run_oracle_checks,
)
from hcbounds.transforms import transform

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(OracleCheckRow)}


@pytest.mark.parametrize("grid_n", [1, 0, -3])
def test_grid_n_below_two_rejected_before_any_row(grid_n):
    with pytest.raises(ValueError, match="grid_n must be >= 2"):
        run_oracle_checks(grid_n=grid_n, instances=1)


@pytest.mark.parametrize("tamper", [False, True])
def test_row_fields_keep_python_types(tamper):
    # np.float64 would still compare equal, but np.bool_ breaks json.dumps
    rows = run_oracle_checks(grid_n=37, instances=2, seed=4, tamper=tamper)
    assert len(rows) == 14
    for row in rows:
        for name, annotation in _FIELD_TYPES.items():
            assert type(getattr(row, name)).__name__ == annotation, (row.label, name)
        for check, pair in row.checks.items():
            assert type(pair) is tuple and [type(value) for value in pair] == [float, float], (row.label, check)
        assert {"check", "loss", "class", "W", "B", "Lambda", "gamma", "x", "t", "closed", "oracle"} <= row.worst.keys()
        for key, value in row.worst.items():
            assert type(value) in (str, float), (row.label, key)
    json.dumps([dataclasses.asdict(r) for r in rows])


@pytest.mark.parametrize("seed", range(3))
def test_worst_instance_rebuilds_the_values_compared(seed):
    """A tampered row's worst instance, rebuilt from the field alone, gives
    back the closed form (plus the tamper nudge) and the oracle value that
    the row compared, bit for bit.  About 0.3 s a seed."""
    grid_n = 401
    nudge = 5.0 * _tolerance(grid_n)
    rows = run_oracle_checks(grid_n=grid_n, instances=3, seed=seed, tamper=True)
    assert all(not row.passed for row in rows)
    for row in rows[:13]:
        got = row.worst
        loss = MarginLoss(LossFamily(got["loss"]), k=got.get("k", 1.0), rho=got.get("rho", 1.0))
        spec = HypothesisSpec(HypothesisClass(got["class"]), got["W"], got["B"], got["Lambda"], got["gamma"])
        point = ConditionalPoint(got["x"], got["t"])
        if got["check"] == "transform":
            closed = transform(loss, spec)(2.0 * got["t_arg"] - 1.0)
            xs = np.linspace(0.0, 1.0, 21)
            oracle = min(
                brute_force_inf(loss, spec, ConditionalPoint(x, got["t_arg"]), Constraint.SCORE_NEGATIVE, grid_n)
                - brute_force_inf(loss, spec, ConditionalPoint(x, got["t_arg"]), Constraint.NONE, grid_n)
                for x in xs
            )
        else:
            assert got["check"] == "min-risk"
            closed = (min_conditional_risk_adversarial(loss, spec, point)[0] if spec.adversarial
                      else min_conditional_risk(loss, spec, point))
            oracle = brute_force_inf(loss, spec, point, Constraint.NONE, grid_n)
        assert (float(closed) + nudge).hex() == got["closed"].hex(), row.label
        assert float(oracle).hex() == got["oracle"].hex(), row.label
        # "over", closed - oracle, is at most the min-risk deviation
        assert abs(got["closed"] - got["oracle"]) == max(dev for dev, _ in row.checks.values())
    relu = rows[13].worst
    assert relu["check"] == "bracket" and relu["closed"] - relu["oracle"] >= 1.0 - 1e-9


def _refuse(token):
    raise ValueError(f"not strict JSON: {token}")


def test_out_round_trip(tmp_path):
    """A clean ``--out`` is strict JSON (no NaN or Infinity token) and holds
    the rows that ``run_oracle_checks`` returns, each check's pair as a list."""
    out = tmp_path / "oc.json"
    assert main(["oracle-check", "--grid-n", "37", "--instances", "2", "--seed", "4", "--out", str(out)]) == 0
    got = json.loads(out.read_text(), parse_constant=_refuse)["rows"]
    want = [dataclasses.asdict(r) for r in run_oracle_checks(grid_n=37, instances=2, seed=4)]
    for row in want:
        row["checks"] = {check: list(pair) for check, pair in row["checks"].items()}
    assert got == want


def _scalar_relu_best(rng, spec, loss, x, t):
    """The ReLU row's sampled minimum, one network at a time, from
    ``sum(u*relu(w*c + b))`` at the ball ends and the kinks inside it; the
    draws are ``_sample_networks``' five, and network j takes the first
    n_units[j] entries of row j of each block."""
    n_units = rng.integers(1, 4, 96)
    raw_all = rng.uniform(-1.0, 1.0, (96, 3))
    fractions = rng.uniform(0.2, 1.0, 96)
    w_all = rng.uniform(-spec.W, spec.W, (96, 3))
    b_all = rng.uniform(-spec.B, spec.B, 96)
    best = math.inf
    for trial in range(96):
        if trial < 2:
            u = np.array([spec.Lambda if trial == 0 else -spec.Lambda])
            w = np.array([0.0])
            b = spec.B
        else:
            raw = raw_all[trial, : n_units[trial]]
            total = np.sum(np.abs(raw))
            u = raw * (spec.Lambda * fractions[trial] / total) if total else raw
            w = w_all[trial, : n_units[trial]]
            b = float(b_all[trial])
        cands = [x - spec.gamma, x + spec.gamma]
        for wj in w:
            if wj != 0.0 and x - spec.gamma < -b / wj < x + spec.gamma:
                cands.append(-b / wj)
        vals = [float(np.sum(u * np.maximum(w * c + b, 0.0))) for c in cands]
        best = min(best, _interval_risk(loss, t, min(vals), max(vals)))
    return best


@pytest.mark.parametrize("seed", range(40))
def test_relu_row_best_matches_the_one_network_loop(seed):
    """The padded array form draws the same networks as the one-network loop
    and finds the same per-instance minimum, bit for bit."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        loss = rho_margin(rho=float(rng.uniform(0.5, 1.5)))
        spec = _sample_spec(rng, cls=HypothesisClass.ONE_HIDDEN_RELU, gamma=float(rng.uniform(0.05, 0.3)))
        x, t = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))
        twin = copy.deepcopy(rng)
        want = _scalar_relu_best(twin, spec, loss, x, t)
        h_lo, h_hi = _relu_ball_extrema(*_sample_networks(rng, spec), x, spec.gamma)
        got = float(_interval_risk(loss, t, h_lo, h_hi).min())
        assert got.hex() == want.hex()
        assert rng.bit_generator.state == twin.bit_generator.state
        lo, hi = min_conditional_risk_adversarial(loss, spec, ConditionalPoint(x, t))
        assert lo - 1e-9 <= got <= hi + 1e-9


def test_sampled_networks_stay_inside_the_class():
    """Every drawn network is in the class: sum |u| <= Lambda, |w| <= W and
    |b| <= B; rows 0 and 1 are the witnesses +-Lambda*relu(B); a network's
    padded units have u = w = 0 and its live ones do not; and every unit
    count from 1 to 3 occurs.  200 instances, about 0.05 s."""
    rng = np.random.default_rng(46)
    counts = set()
    for _ in range(200):
        spec = _sample_spec(rng, cls=HypothesisClass.ONE_HIDDEN_RELU, gamma=0.1)
        n_units = copy.deepcopy(rng).integers(1, 4, 96)
        u, w, b = _sample_networks(rng, spec)
        assert np.all(np.sum(np.abs(u), axis=1) <= spec.Lambda * (1.0 + 1e-12))
        assert np.all(np.abs(w) <= spec.W) and np.all(np.abs(b) <= spec.B)
        assert u[:2].tolist() == [[spec.Lambda, 0.0, 0.0], [-spec.Lambda, 0.0, 0.0]]
        assert not w[:2].any() and b[:2].tolist() == [spec.B, spec.B]
        padded = np.arange(3) >= n_units[2:, None]
        assert not u[2:][padded].any() and not w[2:][padded].any()
        assert np.all(u[2:][~padded] != 0.0) and np.all(w[2:][~padded] != 0.0)
        counts.update(n_units[2:].tolist())
    assert counts == {1, 2, 3}


def _nan_min_risk(monkeypatch):
    monkeypatch.setattr(oracle_check, "min_conditional_risk", lambda *args: math.nan)


def _nan_transform(monkeypatch):
    monkeypatch.setattr(oracle_check, "transform", lambda loss, spec: lambda x: math.nan)


def _bracket_with(end, value):
    """Inject ``value(lo, hi)`` into one end (0 for lo, 1 for hi) of every
    adversarial bracket the rows read."""

    def inject(monkeypatch):
        real = oracle_check.min_conditional_risk_adversarial

        def bracket(loss, spec, point):
            ends = list(real(loss, spec, point))
            ends[end] = value(*ends)
            return tuple(ends)

        monkeypatch.setattr(oracle_check, "min_conditional_risk_adversarial", bracket)

    return inject


def _width_at_least(lo, width):
    """The least float hi with hi - lo >= width."""
    hi = lo + width
    while hi - lo < width:
        hi = math.nextafter(hi, math.inf)
    return hi


_LINEAR, _RELU = 12, 13  # the two adversarial rows; rows 0-11 are the grid rows
# injection: (the rows that read the value, each with the check its worst instance must name)
_NAN_INJECTIONS = {
    "min-risk": (_nan_min_risk, dict.fromkeys(range(_LINEAR), "min-risk")),
    "transform": (_nan_transform, dict.fromkeys(range(_LINEAR), "transform")),
    "bracket-lo": (_bracket_with(0, lambda lo, hi: math.nan), {_LINEAR: "min-risk", _RELU: "bracket"}),
    "bracket-hi": (_bracket_with(1, lambda lo, hi: math.nan), {_LINEAR: "collapse", _RELU: "bracket"}),
}


@pytest.mark.parametrize("name", sorted(_NAN_INJECTIONS))
def test_a_nan_fails_every_row_that_reads_it(monkeypatch, capsys, name):
    """A NaN closed form, transform or bracket end fails each row that
    compares it, and only those, and the row's worst instance holds it as
    ``closed``; the CLI exits 1, and each failed row's line prints the NaN
    of the check that failed it.  About 0.05 s each."""
    inject, checks = _NAN_INJECTIONS[name]
    inject(monkeypatch)
    rows = run_oracle_checks(grid_n=37, instances=3, seed=4)
    assert [k for k, row in enumerate(rows) if not row.passed] == sorted(checks)
    for k, check in checks.items():
        assert rows[k].worst["check"] == check and math.isnan(rows[k].worst["closed"]), (rows[k].label, rows[k].worst)
        assert math.isnan(rows[k].checks[check][0]), (rows[k].label, rows[k].checks)
    assert main(["oracle-check", "--grid-n", "37", "--instances", "3", "--seed", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(rows)
    for k, line in enumerate(lines):
        assert line.startswith("[FAIL]" if k in checks else "[PASS]"), line
        assert (f" {checks[k]}=nan " in line) if k in checks else ("=nan" not in line), line


@pytest.mark.parametrize("width, passed", [(1e-12, False), (0.5, False), (0.5e-12, True), (0.0, True)])
def test_linear_bracket_must_close_below_1e_12(monkeypatch, width, passed):
    """The linear bracket is exact for the class: ends 1e-12 or more apart
    fail its row (exit 1, no internal error), and nothing else fails.  A
    ReLU bracket only widens, so its row still passes."""
    _bracket_with(1, lambda lo, hi: max(hi, _width_at_least(lo, width)))(monkeypatch)
    rows = run_oracle_checks(grid_n=37, instances=3, seed=4)
    assert [row.passed for row in rows] == [True] * _LINEAR + [passed, True]
    assert main(["oracle-check", "--grid-n", "37", "--instances", "3", "--seed", "4"]) == (0 if passed else 1)
