"""Tests of the benchmark itself: its output checks can fail, its counts
repeat, its tracer computes self time and restores the package.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hcbounds  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _bench(*args):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_tampered_oracle_ops_all_fail_and_clean_ops_pass():
    reference = wl.load_reference()
    for tamper in (True, False):
        ops = wl.make_ops("oracle", 3, 2, tamper=tamper)
        verdicts = [op.check(op.run(), reference) for op in ops]
        assert verdicts == [not tamper] * len(ops)


def test_bound_check_rejects_a_shifted_report():
    reference = wl.load_reference()
    op = wl.make_ops("bound", 5, 5)[4]  # exact exponential, unrestricted class: cheap
    report = op.run()
    assert op.check(report, reference)
    shifted = type(report)(**{**report.__dict__, "rhs": report.rhs + 1e-3, "slack": report.slack + 1e-3})
    assert not op.check(shifted, reference)


@pytest.mark.parametrize("workload", ["oracle", "bound"])
def test_traced_counts_repeat_exactly(workload):
    runs = [_bench("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1") for _ in range(2)]
    for res in runs:
        assert res["correct"] and res["failed"] == 0
    counts = [
        {k: v["value"] for k, v in res["metrics"].items() if v["unit"] in ("count", "B")} for res in runs
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_self_time_subtracts_union_of_children():
    t = tracing.Tracer()
    t.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 3.0, 0], ["b", 2.0, 4.0, 0], ["c", 6.0, 7.0, 0]]
    totals = t.totals()
    assert totals["a"] == (1, 10.0, 6.0)
    assert totals["b"] == (2, 4.0, 4.0)


def test_install_patches_consumers_and_uninstall_restores():
    from hcbounds import conditional, losses

    orig = losses.eval_margin_loss
    t = tracing.Tracer()
    t.install(hcbounds)
    try:
        assert conditional.eval_margin_loss is not orig
        assert hcbounds.eval_margin_loss is conditional.eval_margin_loss
        hcbounds.brute_force_inf(hcbounds.hinge(), hcbounds.HypothesisSpec(hcbounds.HypothesisClass.ALL),
                                 hcbounds.ConditionalPoint(0.5, 0.7), grid_n=101)
    finally:
        t.uninstall()
    assert conditional.eval_margin_loss is orig and hcbounds.eval_margin_loss is orig
    assert t.counts["conditional.grid_cells"] == 101
    assert t.counts["losses.elems"] == 2 * 101
    names = [s[0] for s in t.spans]
    assert names == ["conditional.brute_force_inf", "losses.eval_margin_loss", "losses.eval_margin_loss"]
    assert all(s[3] == 0 for s in t.spans[1:])


def test_tail_has_ten_ops_beyond_it():
    lat = [float(i) for i in range(40)]
    value, pct = run.tail(lat)
    assert sum(x > value for x in lat) == 10 and pct == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0 and out.stdout.strip() == ""
