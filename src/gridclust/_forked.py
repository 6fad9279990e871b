"""``forked_map``: a list map over forked worker processes, with the serial
loop's results and errors.

Workers are plain ``os.fork`` children that inherit the caller's memory, so
jobs and ``fn`` are never pickled; only results travel back, one pickled
reply per worker through its own pipe.  Starting two workers costs a few
milliseconds, far less than a ``multiprocessing`` pool and its imports.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Callable, Sequence

# At most this many 4-byte job records go into the job pipe, which the
# parent fills before any worker starts: 4 KiB, the smallest buffer a Linux
# pipe can have.  Longer job lists are handed out in equal batches.
_MAX_RECORDS = 1024


def usable_cpus() -> int:
    """The number of CPUs this process may run on (1 where the OS cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def forked_map(fn: Callable, jobs: Sequence, workers: int) -> list:
    """``[fn(job) for job in jobs]`` on up to ``workers`` forked processes.

    The error raised is the first failing job's, as in the serial loop.
    Workers take job indices one batch at a time from one pipe, so a slow
    job holds up only its own worker.  The calling process runs no job
    unless a worker's reply is missing or cannot be unpickled (a result that
    does not pickle, a worker that died); it then runs those jobs itself,
    which gives the same value or error.  Every worker has been reaped when
    this returns or raises, and is killed first if this raises.

    The map runs serially in this process with fewer than two workers or
    jobs, without ``os.fork``, or while another thread runs, which could hold
    a lock that a forked child would wait on forever.
    """
    workers = min(workers, len(jobs))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(job) for job in jobs]
    step = -(-len(jobs) // _MAX_RECORDS)
    todo, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(4, "little") for i in range(0, len(jobs), step)))
    os.close(feed)
    children: list[tuple[int, int]] = []
    replies: dict[int, tuple[bool, object]] = {}
    try:
        for _ in range(workers):
            reply, out = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, jobs, step, todo, out)
            os.close(out)
            children.append((pid, reply))
        for _, reply in children:
            chunks = []
            while chunk := os.read(reply, 1 << 16):
                chunks.append(chunk)
            try:
                replies.update((i, (ok, value)) for i, ok, value in pickle.loads(b"".join(chunks)))
            except Exception:
                pass  # its jobs run below
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(todo)
        for pid, reply in children:
            os.close(reply)
            os.waitpid(pid, 0)
    results = []
    for i, job in enumerate(jobs):
        ok, value = replies[i] if i in replies else (True, fn(job))
        if not ok:
            raise value
        results.append(value)
    return results


def _work(fn: Callable, jobs: Sequence, step: int, todo: int, out: int) -> None:
    """A worker's life: run the batches read from ``todo``, send the pickled
    ``(index, ok, value or exception)`` list to ``out`` and exit."""
    try:
        done = []
        while len(record := os.read(todo, 4)) == 4:
            start = int.from_bytes(record, "little")
            for i in range(start, min(start + step, len(jobs))):
                try:
                    done.append((i, True, fn(jobs[i])))
                except Exception as exc:
                    done.append((i, False, exc))
        with open(out, "wb") as fh:
            # Protocol 5 keeps read-only arrays read-only: frozen results stay frozen.
            fh.write(pickle.dumps(done, 5))
    finally:
        os._exit(0)
