"""One benchmark process: import hcbounds, generate inputs, run ops.

Started by ``run.py`` in a fresh interpreter; not meant to be run by hand.
It prints ``READY`` once set-up is done, right before the first timed op,
and one JSON line with the raw measurements at the end.

Both modes run a fixed op list of whole cycles, sized from nominal cycle
costs so that it takes a given time at the commit that defined the
benchmark; the list depends only on workload, seed and ``--seconds``, so
every commit is timed on identical work and the tail percentile always falls
at the same rank.  Set-up ends with one untimed run of the first op, so any
one-off work the package defers to its first call counts as set-up, as it
does for a CLI invocation.

* ``--mode run``: an op list for ``--seconds``, run once (run.py starts
  several of these one after another, each for its share of the run).
* ``--mode trace``: an op list for ``--seconds / 2``, run once untraced and
  once traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# Seconds per op cycle at the commit that defined the benchmark (2-core
# Xeon VM).  They size the fixed op lists and never enter a metric.
NOMINAL_CYCLE_S = {"oracle": 0.37, "sweep": 2.4, "bound": 1.76}


def cycles_for(workload: str, seconds: float) -> int:
    """Whole cycles that take about ``seconds`` at nominal cost."""
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def _timed_pass(ops, reference):
    """Run ops in order; returns (latencies, ok flags, wall seconds, cpu seconds)."""
    latencies, ok = [], []
    clock = time.perf_counter
    cpu0, wall0 = _cpu_s(), clock()
    for op in ops:
        t0 = clock()
        out = op.run()
        latencies.append(clock() - t0)
        ok.append(bool(op.check(out, reference)))
    return latencies, ok, clock() - wall0, _cpu_s() - cpu0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("run", "trace"), required=True)
    args = p.parse_args(argv)

    import hcbounds

    import workloads as wl

    seconds = args.seconds / 2.0 if args.mode == "trace" else args.seconds
    n_ops = wl.CYCLE[args.workload] * cycles_for(args.workload, seconds)
    ops = wl.make_ops(args.workload, args.seed, n_ops)
    reference = wl.load_reference()
    ops[0].run()  # one-off work deferred to the first call is set-up too
    print("READY", flush=True)

    result = {"kinds": [op.kind for op in ops]}
    if args.mode == "run":
        latencies, ok, _, _ = _timed_pass(ops, reference)
        result.update(latencies=latencies, ok=ok)
    else:
        from tracing import Tracer

        lat_plain, ok_plain, wall_plain, cpu_plain = _timed_pass(ops, reference)
        tracer = Tracer()
        tracer.install(hcbounds)
        try:
            lat_traced, ok_traced, _, _ = _timed_pass(ops, reference)
        finally:
            tracer.uninstall()
        result.update(
            latencies=lat_plain,
            ok=ok_plain + ok_traced,
            wall_s=wall_plain,
            cpu_s=cpu_plain,
            op_s=sum(lat_plain),
            traced_op_s=sum(lat_traced),
            totals=tracer.totals(),
            counts=tracer.counts,
            max_adv_bytes=tracer.max_adv_bytes,
        )
    import numpy
    import scipy

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hcbounds": getattr(hcbounds, "__version__", "unknown"),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
