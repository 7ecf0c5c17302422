"""The one process pool: an ordered, bounded map over forked workers, used
for the runs of ``sr`` and the input chunks of ``corpus`` as they are read;
one call in a forked worker, used for the category tree of ``extract``; and
a forked worker serving calls in lockstep, used by ``mlm.train``."""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial
from itertools import chain, islice


def usable_cpus():
    """The CPUs this process may run on, which ``taskset`` limits."""
    return len(os.sched_getaffinity(0))


def fork_map(fn, items, jobs):
    """``fn(x)`` for each item, yielded in item order.  With ``jobs`` > 1
    and more than one item, the calls are shared among up to ``jobs``
    forked worker processes, at most two items per worker are drawn ahead
    of the consumer, and the workers end with the generator; the first
    exception in item order is raised here.  ``fn``, the items and the
    results must pickle.  Workers are forked, not spawned: they start
    without re-importing numpy, and they see module attributes as the
    caller left them.  Forking is safe because the program starts no
    thread of its own, the pool forks all workers before its own manager
    thread starts, and the consumer does not fork while it runs."""
    items = iter(items)
    head = list(islice(items, jobs))  # no more workers than items
    workers = len(head)
    if workers <= 1:
        yield from map(fn, chain(head, items))
        return
    from concurrent.futures import ProcessPoolExecutor  # only for a pool
    from multiprocessing import get_context

    with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
        pending = []
        for x in chain(head, items):
            if len(pending) == 2 * workers:
                yield pending.pop(0).result()
            pending.append(pool.submit(fn, x))
        while pending:
            yield pending.pop(0).result()


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


@contextmanager
def fork_server(fn, jobs):
    """``submit`` for the caller's block: ``submit(x)`` starts ``fn(x)`` and
    returns a function that waits for its result, to be called before the
    next ``submit``.  With ``jobs`` > 1 the calls run in one worker, forked
    on entry, while the block works on; it sees later writes of the caller
    only in shared memory.  ``x`` and the results must pickle.  An
    exception of ``fn`` ends the worker, printing its traceback to stderr,
    and any worker that ends without a result is a BrokenProcessPool here.
    The worker is killed and joined on every exit from the block.  With
    ``jobs`` <= 1 each call runs here, when its result is waited for, so an
    exception of ``fn`` is raised as it is."""
    if jobs <= 1:
        yield lambda x: partial(fn, x)
        return
    from multiprocessing import get_context

    ctx = get_context("fork")
    conn, child = ctx.Pipe()
    worker = ctx.Process(target=_serve, args=(fn, child), daemon=True)
    worker.start()
    child.close()

    def result():
        try:
            return conn.recv()
        except EOFError:
            from concurrent.futures.process import BrokenProcessPool

            raise BrokenProcessPool("the worker ended without a result; its "
                                    "traceback, if any, is on stderr") from None

    def submit(x):
        conn.send(x)
        return result

    try:
        yield submit
    finally:
        worker.kill()
        worker.join()
        conn.close()


def _serve(fn, conn):
    """The worker of ``fork_server``: one result per call, until killed."""
    while True:
        conn.send(fn(conn.recv()))
