import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import pytest

from mathcorpus.pool import fork_call
from mathcorpus.wiki_extract import SqlSyntax


def raise_(exc, after=0.0):
    time.sleep(after)
    raise exc


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


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
