"""forked_map against the serial loop: the same values, the same first error,
and no worker process left behind."""

import os
import signal
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridclust import _forked
from gridclust._forked import forked_map
from gridclust.errors import DatasetError, InternalError

CALLER = os.getpid()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcome(fn, jobs, workers=None):
    """forked_map's list, or its error as (type, message); the serial loop's
    when ``workers`` is None."""
    try:
        if workers is None:
            return [fn(job) for job in jobs]
        return forked_map(fn, jobs, workers)
    except Exception as exc:
        return (type(exc), str(exc))
    finally:
        assert_no_child_left()


ERRORS = [ValueError, KeyError, DatasetError, InternalError, ZeroDivisionError]


@settings(max_examples=40)
@given(
    n=st.integers(0, 12),
    failing=st.dictionaries(st.integers(0, 11), st.sampled_from(ERRORS), max_size=3),
    workers=st.integers(1, 3),
)
def test_values_and_first_error_match_the_serial_loop(n, failing, workers):
    def job(i):
        if i in failing:
            raise failing[i](f"job {i} failed")
        return (i, i * i)

    assert outcome(job, list(range(n)), workers) == outcome(job, list(range(n)))


def test_the_first_error_in_job_order_wins_over_one_that_came_back_first():
    # Worker 1 takes job 1 while worker 0 sleeps in job 0; worker 0 then
    # takes job 2, whose error reaches the caller first, in worker 0's reply.
    def job(i):
        if i < 2:
            time.sleep(0.3)
        if i == 1:
            raise ValueError("job 1")
        if i == 2:
            raise KeyError("job 2")
        return i

    assert outcome(job, range(3), 2) == outcome(job, range(3)) == (ValueError, "job 1")


def test_the_calling_process_runs_no_job():
    pids = forked_map(lambda _: os.getpid(), range(8), 2)
    assert CALLER not in pids and 1 <= len(set(pids)) <= 2
    assert_no_child_left()


def test_more_jobs_than_job_records_come_back_in_order():
    n = 3 * _forked._MAX_RECORDS + 5
    assert outcome(lambda i: -i, range(n), 3) == [-i for i in range(n)]


class Unpicklable:
    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Unpicklable) and other.value == self.value

    def __reduce__(self):
        raise TypeError("cannot pickle this result")


class TwoArgumentError(Exception):
    """Pickles, but does not unpickle: its __init__ needs two arguments."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def test_a_result_that_cannot_be_pickled_is_computed_again_here():
    in_caller = []

    def job(i):
        if os.getpid() == CALLER:
            in_caller.append(i)
        return Unpicklable(i) if i == 3 else i

    got = outcome(job, range(6), 2)
    assert got == [0, 1, 2, Unpicklable(3), 4, 5]
    assert 3 in in_caller


def test_an_error_that_cannot_be_unpickled_is_raised_here():
    def job(i):
        if i == 2:
            raise TwoArgumentError("job 2", "failed")
        return i

    assert outcome(job, range(5), 2) == outcome(job, range(5)) == (
        TwoArgumentError, "job 2: failed")


@pytest.mark.parametrize("workers", [2, 3])
def test_a_worker_that_dies_mid_job_leaves_its_jobs_to_the_caller(workers):
    def job(i):
        if i == 4 and os.getpid() != CALLER:
            os._exit(3)
        return i + 100

    assert outcome(job, range(9), workers) == [i + 100 for i in range(9)]


def test_a_worker_killed_by_a_signal_leaves_its_jobs_to_the_caller():
    def job(i):
        if i == 1 and os.getpid() != CALLER:
            os.kill(os.getpid(), signal.SIGKILL)
        if i == 5:
            raise ValueError("job 5")
        return i

    assert outcome(job, range(8), 2) == (ValueError, "job 5")


class Interrupted(Exception):
    pass


def test_an_interrupted_map_kills_and_reaps_its_workers():
    def interrupt(signum, frame):
        raise Interrupted

    previous = signal.signal(signal.SIGALRM, interrupt)
    begin = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)  # not inherited by a fork
        with pytest.raises(Interrupted):
            forked_map(lambda _: time.sleep(60), range(4), 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - begin < 30
    assert_no_child_left()


def test_a_process_with_threads_maps_serially():
    done = threading.Event()
    waiting = threading.Thread(target=done.wait, args=(60,))
    waiting.start()
    try:
        pids = forked_map(lambda _: os.getpid(), range(4), 2)
    finally:
        done.set()
        waiting.join(60)
    assert pids == [CALLER] * 4
