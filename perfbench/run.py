"""hcbounds benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {oracle,sweep,bound} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's details (op counts, tail percentile, failure fraction) and meta
(machine, versions, git sha, thread environment).  Every process the
benchmark starts runs one after the other and is waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import SPANNED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("oracle", "sweep", "bound")
# Measuring processes per run.  Each runs the same op list once, and the op
# metrics are taken over the timings of all of them, which spreads a run over
# several process starts (memory placement varies between processes on a
# shared host).  Set-up happens once per process, so with only this many
# samples it is the fastest of them: interference only ever adds time.
WORKERS = 3
IMPORT_PROBES = 3
TIMEOUT_S = 170.0
THREAD_ENV = ("HCB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {"calls": "count", "s": "s", "self_s": "s"}


class BenchError(RuntimeError):
    pass


def _spawn(args, deadline):
    """Start the worker with ``args``; returns (process, seconds to READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=str(ROOT),
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"worker did not become ready: {line.strip()!r}")
        return proc, ready, watchdog
    except BaseException:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        raise


def _finish(proc, watchdog):
    """Read the worker's last stdout line and wait for it to exit."""
    try:
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not lines:
        raise BenchError(f"worker exited with code {code} and {len(lines)} result lines")
    return json.loads(lines[-1])


def _run_worker(args, deadline):
    proc, ready, watchdog = _spawn(args, deadline)
    return ready, _finish(proc, watchdog)


def _import_cli_seconds(deadline) -> float:
    code = (
        "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
        "import hcbounds.cli; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=str(ROOT), capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0), check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 ops beyond it;
    the maximum when the run has 10 ops or fewer."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# run meta
# ---------------------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _git_sha() -> str:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if not head.startswith("ref: "):
        return head or "unavailable (not a git checkout)"
    ref = head[5:]
    sha = _read(git / ref)
    if sha:
        return sha
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unavailable"


def machine_meta() -> dict:
    cpu = next(
        (l.split(":", 1)[1].strip() for l in _read("/proc/cpuinfo").splitlines() if l.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.exists() else ():
        level, kind, size = _read(idx / "level"), _read(idx / "type"), _read(idx / "size")
        if size:
            caches[f"L{level} {kind}"] = size
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "caches": caches,
        "git_sha": _git_sha(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(worker_args, seconds, deadline):
    setups, runs = [], []
    for _ in range(WORKERS):
        ready, res = _run_worker([*worker_args, "--seconds", str(seconds / WORKERS), "--mode", "run"], deadline)
        setups.append(ready)
        runs.append(res)
    lat = [t for r in runs for t in r["latencies"]]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": (min(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in runs) / 1024.0, "MB"),
    }
    by_kind = {}
    for kind, t in zip(runs[0]["kinds"] * WORKERS, lat):
        by_kind.setdefault(kind, []).append(t)
    details = {
        "ops": len(lat),
        "processes": WORKERS,
        "op_tail_percentile": tail_pct,
        "setup_samples_s": setups,
        "ops_per_s_by_process": [len(r["latencies"]) / sum(r["latencies"]) for r in runs],
        "median_s_by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
    }
    merged = dict(runs[0], ok=[ok for r in runs for ok in r["ok"]])
    return metrics, merged, details


def per_layer(worker_args, seconds, deadline):
    _, res = _run_worker([*worker_args, "--seconds", str(seconds), "--mode", "trace"], deadline)
    totals, counts = res["totals"], res["counts"]
    metrics = {}
    for name, fields in SPANNED.items():
        calls, incl, self_s = totals.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "s": incl, "self_s": self_s}
        for f in fields:
            metrics[f"{name}.{f}"] = (values[f], UNITS[f])

    def rate(count_key, span):
        busy = totals.get(span, (0, 0.0, 0.0))[1]
        return counts.get(count_key, 0) / busy if busy > 0 else 0.0

    inverts = totals.get("transforms.invert_numerically", (0, 0.0, 0.0))[0]
    metrics.update({
        "losses.elems": (counts.get("losses.elems", 0), "count"),
        "losses.elems_per_s": (rate("losses.elems", "losses.eval_margin_loss"), "1/s"),
        "conditional.grid_cells": (counts.get("conditional.grid_cells", 0), "count"),
        "conditional.cells_per_s": (rate("conditional.grid_cells", "conditional.brute_force_inf"), "1/s"),
        "conditional.adv_bytes": (res["max_adv_bytes"], "B"),
        "transforms.evals": (counts.get("transforms.evals", 0), "count"),
        "transforms.evals_per_invert": (
            counts.get("transforms.invert_evals", 0) / inverts if inverts else 0.0, "count"),
        "distributions.samples": (counts.get("distributions.samples", 0), "count"),
        "distributions.samples_per_s": (rate("distributions.samples", "distributions.sample"), "1/s"),
        "distributions.integrand_evals": (counts.get("distributions.integrand_evals", 0), "count"),
        "distributions.pdf_calls": (counts.get("distributions.pdf_calls", 0), "count"),
        "distributions.eta_calls": (counts.get("distributions.eta_calls", 0), "count"),
        "cli.import_s": (_import_cli_seconds(deadline), "s"),
        "proc.cpu_s": (res["cpu_s"], "s"),
        "proc.cpu_per_wall": (res["cpu_s"] / res["wall_s"], "ratio"),
        "trace.overhead_frac": (res["traced_op_s"] / res["op_s"] - 1.0, "fraction"),
    })
    top = sorted(totals.items(), key=lambda kv: kv[1][2], reverse=True)[:6]
    details = {
        "ops": len(res["latencies"]),
        "top_self_s": {name: round(v[2], 4) for name, v in top},
    }
    return metrics, res, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (ROOT / "src" / "hcbounds" / "__init__.py").is_file():
        print(f"error: no hcbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, res, details = measure(worker_args, args.seconds, deadline)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = len(res["ok"]), res["ok"].count(False)
    details["fail_frac"] = failed / attempted
    meta = dict(machine_meta(), versions=res["versions"], workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    print(json.dumps({"details": details, "meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
