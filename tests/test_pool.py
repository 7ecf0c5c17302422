import mmap
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np
import pytest

from mathcorpus.pool import fork_call, fork_map, fork_server
from mathcorpus.wiki_extract import SqlSyntax


def raise_(exc, after=0.0):
    time.sleep(after)
    raise exc


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def sleep_then_return(x):
    time.sleep(0.002 * (x % 4))  # later items may finish first
    return x


def fail_at_3_and_5(x):
    if x == 3:
        raise_(ValueError("item 3"), after=0.1)  # after item 5 has failed
    if x == 5:
        raise KeyError("item 5")
    return x


class TestForkMap:
    """``fork_map`` in process at ``jobs=1`` and over two forked workers at
    ``jobs=2``; never more than 2 workers here."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_come_back_in_item_order(self, jobs):
        assert list(fork_map(sleep_then_return, range(40), jobs)) \
            == list(range(40))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_exception_in_item_order_is_raised(self, jobs):
        got = []
        with pytest.raises(ValueError, match="item 3"):
            for x in fork_map(fail_at_3_and_5, range(20), jobs):
                got.append(x)
        assert got == [0, 1, 2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_draws_at_most_two_items_per_job_ahead(self, jobs):
        drawn = []

        def items():
            for x in range(30):
                drawn.append(x)
                yield x

        for consumed, x in enumerate(fork_map(abs, items(), jobs), 1):
            assert x == consumed - 1
            assert len(drawn) - consumed <= 2 * jobs
        assert len(drawn) == 30

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_child_left_after_the_consumer_stops_early(self, jobs):
        start = time.monotonic()
        results = fork_map(sleep_then_return, range(1000), jobs)
        assert next(results) == 0
        results.close()
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 1  # the rest was not waited for

    @pytest.mark.parametrize("n_items, jobs, same_pid", [
        (3, 1, True), (1, 2, True), (3, 2, False)])
    def test_runs_in_process_at_one_job_or_item(self, n_items, jobs,
                                                same_pid):
        pids = set(fork_map(pid_of_caller, range(n_items), jobs))
        assert (pids == {os.getpid()}) == same_pid


class TestForkCall:
    """``fork_call`` in process at ``jobs=1`` and in one forked worker at
    ``jobs=2``; never more than 2 workers here."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_result_comes_back(self, jobs):
        with fork_call(partial(divmod, 17, 5), jobs) as future:
            assert future.result() == (3, 2)
            assert future.done()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs, same_pid", [(1, True), (2, False)])
    def test_runs_in_process_only_at_one_job(self, jobs, same_pid):
        with fork_call(os.getpid, jobs) as future:
            assert (future.result() == os.getpid()) == same_pid

    @pytest.mark.parametrize("exc", [
        SqlSyntax("unterminated VALUES tuple", 51),
        FileNotFoundError(2, "No such file or directory", "absent.sql"),
    ], ids=["SqlSyntax", "FileNotFoundError"])
    def test_exception_keeps_type_message_and_filename(self, exc):
        with pytest.raises(type(exc)) as raised:
            with fork_call(partial(raise_, exc), 2) as future:
                future.result()
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        assert getattr(raised.value, "filename", None) \
            == getattr(exc, "filename", None)
        assert multiprocessing.active_children() == []

    def test_exception_at_one_job_leaves_on_entry(self):
        entered = []
        with pytest.raises(KeyError):
            with fork_call(partial(raise_, KeyError("k")), 1):
                entered.append(True)
        assert entered == []

    def test_no_child_left_after_the_block_raises(self):
        with pytest.raises(ValueError, match="block"):
            with fork_call(partial(time.sleep, 0.2), 2) as future:
                assert not future.done()
                raise ValueError("block")
        assert multiprocessing.active_children() == []

    def test_exception_of_the_call_wins_over_the_block(self):
        late_error = partial(raise_, KeyError("call"), after=0.2)
        with pytest.raises(KeyError, match="call"):
            with fork_call(late_error, 2):
                raise ValueError("block")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fn, exc", [
        (partial(os._exit, 3), BrokenProcessPool),
        (kill_self, BrokenProcessPool),
        (threading.Lock, TypeError),  # the result does not pickle
    ], ids=["os._exit", "SIGKILL", "unpicklable-result"])
    def test_worker_without_a_result_is_a_typed_error(self, fn, exc):
        with pytest.raises(exc):
            with fork_call(fn, 2) as future:
                future.result()
        assert multiprocessing.active_children() == []


def pid_of_caller(_):
    return os.getpid()


def call(fn):
    return fn()


class TestForkServer:
    """``fork_server`` in process at ``jobs=1`` and in one forked worker at
    ``jobs=2``, serving several calls in lockstep."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_come_back_in_lockstep(self, jobs):
        with fork_server(partial(divmod, 17), jobs) as submit:
            for x in (5, 3, 17):
                assert submit(x)() == divmod(17, x)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs, same_pid", [(1, True), (2, False)])
    def test_runs_in_process_only_at_one_job(self, jobs, same_pid):
        with fork_server(pid_of_caller, jobs) as submit:
            pids = {submit(None)() for _ in range(3)}
        assert len(pids) == 1
        assert (pids == {os.getpid()}) == same_pid

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_sees_writes_to_shared_memory_only(self, jobs):
        shared = np.frombuffer(mmap.mmap(-1, 8))
        private = np.zeros(1)
        with fork_server(lambda _: (shared[0], private[0]), jobs) as submit:
            shared[0] = private[0] = 1.0
            got = submit(None)()
        assert got == (1.0, 1.0 if jobs == 1 else 0.0)

    def test_exception_at_one_job_is_raised_as_it_is(self):
        exc = FileNotFoundError(2, "No such file or directory", "absent.sql")
        with fork_server(call, 1) as submit:
            with pytest.raises(FileNotFoundError) as raised:
                submit(partial(raise_, exc))()
            # and the calls go on
            assert submit(partial(divmod, 7, 2))() == (3, 1)
        assert raised.value is exc

    def test_exception_in_the_worker_ends_it(self, capfd):
        with pytest.raises(BrokenProcessPool, match="on stderr"):
            with fork_server(call, 2) as submit:
                submit(partial(raise_, SqlSyntax("unterminated tuple", 51)))()
        assert multiprocessing.active_children() == []
        assert "SqlSyntax: unterminated tuple" in capfd.readouterr().err

    def test_call_at_one_job_runs_when_waited_for(self):
        ran = []
        with fork_server(ran.append, 1) as submit:
            result = submit("x")
            assert ran == []
            result()
        assert ran == ["x"]

    def test_no_child_left_after_the_block_raises(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match="block"):
            with fork_server(time.sleep, 2) as submit:
                submit(30)
                raise ValueError("block")
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 10  # the call was not waited for

    @pytest.mark.parametrize("fn", [
        partial(os._exit, 3),
        kill_self,
        threading.Lock,  # the result does not pickle
    ], ids=["os._exit", "SIGKILL", "unpicklable-result"])
    def test_worker_without_a_result_is_a_typed_error(self, fn):
        with pytest.raises(BrokenProcessPool):
            with fork_server(call, 2) as submit:
                submit(fn)()
        assert multiprocessing.active_children() == []
