"""Regenerate ``reference.json``: the expected outputs of every pooled op.

The reference pins the outputs of the commit that defined the benchmark, so
run this only when the benchmark's inputs change, never to make a failing
check pass.  Usage, from the repository root::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    ref = {"pool": wl.POOL, "sweep": {"nonadv": [], "adv": []}, "bound": []}
    for slot in range(wl.POOL):
        for pos in range(wl.CYCLE["sweep"]):
            op = wl.sweep_op(slot, pos)
            ref["sweep"][op.kind].append(wl.rows_digest(op.run()))
        ref["bound"].append(
            [wl.bound_summary(wl.bound_op(slot, pos).run()) for pos in range(wl.CYCLE["bound"])]
        )
        print(f"slot {slot + 1}/{wl.POOL}", file=sys.stderr, flush=True)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
