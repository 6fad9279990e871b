"""Start the route's child processes and report each one's own peak RSS.

A process started by fork or vfork inherits its parent's peak RSS: it begins
in a copy of (or in) its parent's address space, and Linux carries that
space's high-water mark across exec.  The benchmark harness holds numpy,
gridclust and the workload's inputs, so every child it started itself would
report at least the harness's size.  A launcher process, whose own address
space after exec is small, starts the children instead.

``python3 launcher.py`` serves requests on standard input, one JSON object a
line, ``{"cmd": [...], "cwd": str, "env": {...}, "log": str, "timeout": s}``,
and answers each with ``{"code": int, "wall": s, "rss_kb": int}``.  The
harness side is ``Launcher``; this module imports only the standard library.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


class Launcher:
    """The harness side: one launcher process for the life of this object."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list[str], timeout: float, cwd, env: dict[str, str], log) -> tuple[int, float, int]:
        """Run one child process, its output going to the file ``log``.
        Return its exit code (-1 when killed for overrunning ``timeout``),
        its wall seconds and its own peak RSS in KiB."""
        request = {"cmd": cmd, "cwd": str(cwd), "env": env, "log": str(log), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended")
        reply = json.loads(reply)
        return reply["code"], reply["wall"], reply["rss_kb"]

    def close(self) -> None:
        """End the launcher process and wait for it."""
        if self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as log:
            begin = time.perf_counter()
            proc = subprocess.Popen(
                req["cmd"], cwd=req["cwd"], env=req["env"],
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - begin
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code < 0 and wall >= req["timeout"]:
            code = -1
        print(json.dumps({"code": code, "wall": wall, "rss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    _serve()
