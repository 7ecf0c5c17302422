"""The one process pool: a map over forked workers, used for the
independent runs of ``sr`` and the input chunks of ``corpus``, and
one call in a forked worker, used for the category tree of ``extract``."""

from __future__ import annotations

from contextlib import contextmanager


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


@contextmanager
def fork_call(fn, jobs):
    """A future of ``fn()``, with ``done()`` and ``result()``, for the
    caller's block.  With ``jobs`` > 1 the call runs in one forked worker
    while the block runs on; ``fn`` and its result must pickle, and an
    exception of ``fn`` comes back with its type and message.  The block
    is left only once the call has ended, also when the block raises, and
    an exception of ``fn`` wins over one of the block.  With ``jobs`` <= 1
    the call runs here, on entry, so its exception leaves at once.  The
    block must not fork, as the pool's threads run beside it."""
    if jobs <= 1:
        from concurrent.futures import Future

        future = Future()
        future.set_result(fn())
        yield future
        return
    from concurrent.futures import ProcessPoolExecutor  # only for a worker
    from multiprocessing import get_context

    with ProcessPoolExecutor(1, mp_context=get_context("fork")) as pool:
        future = pool.submit(fn)
        try:
            yield future
        finally:
            future.result()
