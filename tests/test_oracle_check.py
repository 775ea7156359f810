"""Oracle-check rows: argument checks, row field types, the ReLU bracket row."""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from hcbounds.cli import main
from hcbounds.conditional import ConditionalPoint, _interval_risk, min_conditional_risk_adversarial
from hcbounds.hypotheses import HypothesisClass
from hcbounds.losses import rho_margin
from hcbounds.oracle_check import (
    OracleCheckRow,
    _relu_ball_extrema,
    _sample_networks,
    _sample_spec,
    run_oracle_checks,
)

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
    json.dumps([dataclasses.asdict(r) for r in rows])


def test_out_round_trip(tmp_path):
    out = tmp_path / "oc.json"
    assert main(["oracle-check", "--grid-n", "37", "--instances", "2", "--seed", "4", "--out", str(out)]) == 0
    got = json.loads(out.read_text())["rows"]
    want = [dataclasses.asdict(r) for r in run_oracle_checks(grid_n=37, instances=2, seed=4)]
    # through json.dumps, since the bracket rows hold NaN
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def _scalar_relu_best(rng, spec, loss, x, t):
    """The ReLU row's sampled minimum, one network at a time, from
    ``sum(u*relu(w*c + b))`` at the ball ends and the kinks inside it."""
    best = math.inf
    for trial in range(96):
        n_units = int(rng.integers(1, 4))
        if trial < 2:
            u = np.array([spec.Lambda if trial == 0 else -spec.Lambda])
            w = np.array([0.0])
            b = spec.B
        else:
            raw = rng.uniform(-1.0, 1.0, n_units)
            total = np.sum(np.abs(raw))
            u = raw * (spec.Lambda * rng.uniform(0.2, 1.0) / total) if total else raw
            w = rng.uniform(-spec.W, spec.W, n_units)
            b = float(rng.uniform(-spec.B, spec.B))
        cands = [x - spec.gamma, x + spec.gamma]
        for wj in w:
            if wj != 0.0 and x - spec.gamma < -b / wj < x + spec.gamma:
                cands.append(-b / wj)
        vals = [float(np.sum(u * np.maximum(w * c + b, 0.0))) for c in cands]
        best = min(best, _interval_risk(loss, t, min(vals), max(vals)))
    return best


@pytest.mark.parametrize("seed", range(40))
def test_relu_row_best_matches_the_one_network_loop(seed):
    """The padded array form draws the same networks, in the same order, and
    finds the same per-instance minimum, bit for bit."""
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
