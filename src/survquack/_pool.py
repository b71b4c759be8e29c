"""The worker pool that the package's Monte Carlo loops share.

``simulate``'s replications and the pivot's null rows are independent
units of work whose results add. ``run_shares`` splits them into
contiguous shares (``_shares``): the calling process runs the first while
one process pool, kept warm across calls, runs the rest, and the shares'
results are summed. The pool starts at the first split; importing this
module starts nothing.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool


def _usable_cpus():
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count, and at least 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _shares(total: int, minimum: int, workers: int | None = None) -> list:
    """Contiguous ranges that split units 0..total-1 among the processes,
    the parent's first. ``workers`` counts the parent and defaults to the
    usable CPUs; it is capped by them and so that each share holds at least
    ``minimum`` units."""
    cpus = _usable_cpus()
    workers = min(workers or cpus, cpus, max(1, total // minimum))
    bounds = [total * k // workers for k in range(workers + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# The worker pool kept warm across calls, under "pool" as (executor,
# process count) once the first split starts it, and under "lock" the lock
# that makes taking the pool and submitting to it one step for each call.
# A forked child empties the dict: the pool is its parent's, and so is the
# lock if a parent thread held it. The fork hook is the dict's own builtin
# method, so it keeps no copy of this module alive when the package is
# imported again.
_warm = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_warm.clear)


def _shutdown_pool():
    """Shut the warm pool down, if there is one, and wait for its
    processes to exit."""
    pool, _ = _warm.pop("pool", (None, 0))
    if pool is not None:
        pool.shutdown()


def _worker_pool(size: int) -> ProcessPoolExecutor:
    """The warm pool, first started, or replaced by one of ``size``
    processes when it has fewer. Its workers run the package as it was
    when the pool started; interpreter exit shuts it down through
    ``concurrent.futures``' own exit hook. Call it holding the pool lock."""
    pool, pool_size = _warm.get("pool", (None, 0))
    if pool_size < size:
        _shutdown_pool()  # before the new pool forks
        pool = ProcessPoolExecutor(max_workers=size)
        _warm["pool"] = pool, size
    return pool


def _pool_lock() -> threading.Lock:
    # made on first use, by one atomic setdefault, in a forked child too
    return _warm.setdefault("lock", threading.Lock())


def run_shares(fn, args: tuple, total: int, minimum: int, workers: int | None = None):
    """The sum of ``fn(*args, share)`` over the shares of units
    0..total-1 that ``_shares(total, minimum, workers)`` makes.

    The calling process runs the first share while the warm pool
    (``_worker_pool``) runs the others, so ``fn`` must be a module-level
    function and ``args`` picklable. A failing call raises the error of its
    first failing share, whatever the worker count, and leaves none of its
    shares running; a broken pool is dropped, and the next call that
    splits starts a new one.
    """
    first, *rest = _shares(total, minimum, workers)
    parts = []
    try:
        if rest:
            with _pool_lock():
                pool = _worker_pool(len(rest))
                parts = [pool.submit(fn, *args, share) for share in rest]
        result = fn(*args, first)
        for part in parts:
            result += part.result()
    except BrokenProcessPool:
        with _pool_lock():
            _shutdown_pool()
        raise
    finally:
        # a share not yet started is cancelled; the others are waited for
        wait([part for part in parts if not part.cancel()])
    return result
