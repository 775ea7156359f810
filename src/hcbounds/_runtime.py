"""The package's one thread pool.

``thread_map`` runs a function over a list of items on one executor per
process, of ``thread_cap()`` workers, and returns the results in item order.
Two callers use it: the sampler's block driver
(``distributions._map_sample_blocks``), which serves ``sample``, the Monte
Carlo risks and the sweep cells' sampling, and the sweep cells' leaf passes
(``bounds._leaf_totals``).  No output depends on the thread count.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

__all__ = ["thread_cap", "thread_map"]


def thread_cap() -> int:
    """Worker threads of ``thread_map``'s pool, which runs the sampler's
    blocks and the sweep cells' leaf passes: ``HCB_THREADS``, clamped to
    ``os.cpu_count()``, which is also the default when it is unset.  Results
    never depend on it.  The grid oracles run on the calling thread: their
    block-bound pruning leaves too few cells to split.  Raises
    ValueError unless the variable is an integer >= 1."""
    cpus = os.cpu_count() or 1
    raw = os.environ.get("HCB_THREADS", "")
    if not raw:
        return cpus
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"HCB_THREADS must be an integer >= 1, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"HCB_THREADS must be >= 1, got {cap}")
    return min(cap, cpus)


# set in every pool worker, so that a thread_map called from inside one runs inline
_in_worker = threading.local()


def _mark_worker() -> None:
    _in_worker.flag = True


@functools.lru_cache(maxsize=1)
def _pool(cap: int, pid: int) -> ThreadPoolExecutor:
    """The executor of ``cap`` workers that process ``pid`` reuses.  A new
    cap, or a forked child, which has none of its parent's threads, makes a
    new one; the dropped one's idle workers then exit."""
    return ThreadPoolExecutor(max_workers=cap, initializer=_mark_worker)


def thread_map(fn, items) -> list:
    """``[fn(item) for item in items]``, run on the process's one pool of
    ``thread_cap()`` workers, which every pooled call reuses; inline when
    ``min(thread_cap(), len(items))`` is 1, or when called from one of the
    pool's workers, which waiting on the pool it runs on could deadlock.
    Results come back in item order, so a caller that merges them in order
    gets the same answer at every thread count."""
    items = list(items)
    cap = 1 if getattr(_in_worker, "flag", False) else thread_cap()
    if min(cap, len(items)) <= 1:
        return [fn(item) for item in items]
    return list(_pool(cap, os.getpid()).map(fn, items))
