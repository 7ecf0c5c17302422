"""The one process pool: a map over forked workers, used for the
independent runs of ``sr --jobs`` and the input chunks of ``corpus``."""

from __future__ import annotations


def fork_map(fn, items, jobs):
    """``[fn(x) for x in items]``, in item order.  With ``jobs`` > 1 and
    more than one item, the calls are shared among min(jobs, len(items))
    forked worker processes, which end before this returns or raises; the
    first exception in item order is raised here.  ``fn``, the items and
    the results must pickle.  Workers are forked, not spawned: they start
    without re-importing numpy, and they see module attributes as the
    caller left them.  Forking is safe because the program starts no
    thread of its own, and the pool forks all workers before its own
    manager thread starts."""
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor  # only for a pool
    from multiprocessing import get_context

    with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
        return list(pool.map(fn, items))
