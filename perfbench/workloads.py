"""The benchmark workloads: input generation, one op, and its output check.

Every workload is a closed loop driven by one caller: an op is issued only
after the previous one returned.  Ops come in fixed cycles so that a run
always measures whole cycles of the same mix:

* ``oracle``   1 op/cycle:  ``run_oracle_checks(grid_n=4001, instances=1)``
* ``sweep``    2 ops/cycle: full non-adversarial, then adversarial sweep
* ``bound``    9 ops/cycle: one ``assemble_bound`` report per op

An odd cycle length for ``bound`` puts the run's median inside one op kind
instead of on the edge between two kinds, which keeps ``op_p50_s`` steady.

Inputs are derived from the benchmark seed only.  ``sweep`` and ``bound``
draw each cycle from a fixed pool of ``POOL`` seeded cycles whose outputs at
the commit that defined the benchmark are stored in ``reference.json``
(regenerate with ``make_reference.py`` only when the benchmark itself
changes); the benchmark seed picks where in the pool a run starts.
``oracle`` is self-checking, so its op seeds are fresh.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hcbounds as hb

GRID_N = 4001
MC_N = 10**6
MC_N_SUP_HINGE = 10**5
SIGMAS = (0.2, 0.1, 0.05, 0.02, 0.01)
GAMMA = 0.1
MASSART_BETA = 0.5
POOL = 32

# Bound reports: lhs and rhs carry the best-in-class grid search, whose
# accuracy the package declares as 1e-4; the slack rhs - lhs does not (the
# best-in-class target risk cancels), so it is held to quadrature accuracy.
BOUND_LHS_RHS_TOL = 1e-4
BOUND_SLACK_TOL = 1e-7

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("oracle", "sweep", "bound")
CYCLE = {"oracle": 1, "sweep": 2, "bound": 9}

# (kind, loss family, class, mode): exact or Monte Carlo with Massart beta = 1/2
BOUND_KINDS = (
    ("exact-hinge-linear", "hinge", "linear", "exact"),
    ("exact-logistic-linear", "logistic", "linear", "exact"),
    ("exact-quadratic-linear", "quadratic", "linear", "exact"),
    ("exact-rho-margin-linear", "rho-margin", "linear", "exact"),
    ("exact-exponential-all", "exponential", "all", "exact"),
    ("exact-logistic-all", "logistic", "all", "exact"),
    ("mc-quadratic-all-massart", "quadratic", "all", "mc"),
    ("exact-sup-rho-margin-linear", "rho-margin", "adversarial-linear", "exact"),
    ("mc-sup-hinge-linear-massart", "hinge", "adversarial-linear", "mc"),
)


@dataclass(frozen=True)
class Op:
    """One generated op: ``run()`` calls the package, ``check(out)`` returns
    True when the output is correct."""

    workload: str
    kind: str
    args: tuple

    def run(self):
        return _RUN[self.workload](*self.args)

    def check(self, out, reference) -> bool:
        return _CHECK[self.workload](self, out, reference)


def _seed(*words) -> int:
    """A 32-bit seed derived from integer words (SeedSequence mixing)."""
    return int(np.random.SeedSequence([int(w) % 2**32 for w in words]).generate_state(1)[0])


def pool_start(seed: int) -> int:
    return _seed(0x9001, seed) % POOL


def make_ops(workload: str, seed: int, n_ops: int, tamper: bool = False) -> list:
    """The first ``n_ops`` ops of a run with the given benchmark seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    start = pool_start(seed)
    ops = []
    for i in range(n_ops):
        cycle, pos = divmod(i, CYCLE[workload])
        if workload == "oracle":
            ops.append(Op(workload, "oracle", (_seed(seed, i), tamper)))
        elif workload == "sweep":
            ops.append(sweep_op((start + cycle) % POOL, pos))
        else:
            ops.append(bound_op((start + cycle) % POOL, pos))
    return ops


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _run_oracle(seed, tamper):
    return hb.run_oracle_checks(grid_n=GRID_N, instances=1, seed=seed, tamper=tamper)


def _check_oracle(op, rows, reference):
    return len(rows) == 14 and all(r.passed for r in rows)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_op(slot, pos):
    kind = ("nonadv", "adv")[pos]
    return Op("sweep", kind, (kind, _seed(0x5EE9, slot, pos), slot))


def _run_sweep(kind, seed, slot):
    cfg = hb.SweepConfig(sigmas=SIGMAS, n_samples=MC_N, seed=seed, gamma=GAMMA)
    if kind == "nonadv":
        return hb.run_nonadversarial_sweep(cfg)
    return hb.run_adversarial_sweep(cfg)


def rows_digest(rows) -> str:
    """SHA-256 of the rows with every float at full precision."""
    text = json.dumps(rows, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _check_sweep(op, rows, reference):
    kind, _, slot = op.args
    expected = reference["sweep"][kind][slot]
    return len(rows) == 15 and all(r["holds"] for r in rows) and rows_digest(rows) == expected


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def _loss(family, rng):
    if family == "rho-margin":
        return hb.rho_margin(float(rng.uniform(0.5, 1.5)))
    return {"hinge": hb.hinge, "logistic": hb.logistic, "exponential": hb.exponential,
            "quadratic": hb.quadratic}[family]()


def _linear_case(rng, gamma=0.0):
    """A bounded linear class and an h drawn inside it (|w| <= W, |b| <= B)."""
    W = float(rng.uniform(0.5, 6.0))
    B = float(rng.uniform(0.1, 1.0))
    spec = hb.HypothesisSpec(hb.HypothesisClass.LINEAR, W=W, B=B, gamma=gamma)
    h = hb.LinearHypothesis((float(rng.uniform(-W, W)),), float(rng.uniform(-B, B)))
    return spec, h


def bound_op(slot, pos):
    kind, family, cls, how = BOUND_KINDS[pos]
    rng = np.random.default_rng([0xB0, slot, pos])
    # sigma sets how much of [-1, 1] carries density, which drives quadrature
    # and Massart-check cost; rotating it keeps every run's mix alike
    sigma = SIGMAS[(slot + pos) % len(SIGMAS)]
    loss = _loss(family, rng)
    massart, mode = None, hb.Exact()
    if how == "mc":
        n = MC_N if cls == "all" else MC_N_SUP_HINGE
        massart, mode = MASSART_BETA, hb.MonteCarlo(n, seed=_seed(0xB1, slot, pos))
    target, dist = hb.Target.ZERO_ONE, hb.sect7_nonadversarial(sigma)
    if cls == "all":
        spec = hb.HypothesisSpec(hb.HypothesisClass.ALL)
        h = hb.LinearHypothesis((float(rng.uniform(-6.0, 6.0)),), float(rng.uniform(-1.0, 1.0)))
    elif cls == "linear":
        spec, h = _linear_case(rng)
    else:
        spec, h = _linear_case(rng, gamma=GAMMA)
        target, dist = hb.Target.ADVERSARIAL_ZERO_ONE, hb.sect7_adversarial(sigma, GAMMA)
    return Op("bound", kind, (target, loss, spec, dist, h, massart, mode, slot, pos))


def _run_bound(target, loss, spec, dist, h, massart, mode, slot, pos):
    return hb.assemble_bound(target, loss, spec, dist, h, massart=massart, mode=mode)


def bound_summary(report) -> list:
    return [report.lhs, report.rhs, report.slack, report.holds]


def _check_bound(op, report, reference):
    slot, pos = op.args[-2:]
    lhs, rhs, slack, holds = reference["bound"][slot][pos]
    return (
        report.holds == holds
        and abs(report.lhs - lhs) <= BOUND_LHS_RHS_TOL
        and abs(report.rhs - rhs) <= BOUND_LHS_RHS_TOL
        and abs(report.slack - slack) <= BOUND_SLACK_TOL
    )


_RUN = {"oracle": _run_oracle, "sweep": _run_sweep, "bound": _run_bound}
_CHECK = {"oracle": _check_oracle, "sweep": _check_sweep, "bound": _check_bound}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
