"""Reference kernels that gauge how fast the host runs at the moment.

On a shared host the speed of a core drifts: on a 2-vCPU Xeon VM one
``run_mistic`` call on a fixed input took from 0.9 s to 2.0 s within a few
minutes, in CPU time as much as in wall time.  The benchmark runs these fixed
kernels next to each timed stage and scales the stage's wall time by
``NOMINAL_S / kernel time``: a stage is reported in the seconds it would
take on a host where the kernel takes ``NOMINAL_S``.  The kernels use no
gridclust code, so a change to gridclust leaves them as they are.

- ``python``: pairwise grouping of fixed grid cells in plain Python, the
  kind of work in ``mistic`` (loops over cells, tuples, union-find).
- ``numpy``: Lloyd iterations on a fixed small array, the kind of work in
  ``kmeans`` (many numpy calls on arrays of a few thousand rows).
- ``startup``: a new Python process that imports numpy, the kind of work
  that makes up most of a small ``gridclust`` command (process start-up
  and imports).  On that VM it gauged the commands as well as a kernel
  that also imports scipy, at a quarter of the cost.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time

import numpy as np

NOMINAL_S = {"python": 0.1, "numpy": 0.1, "startup": 0.25}

_rng = np.random.default_rng(20230701)
_CELLS = [tuple(map(int, c)) for c in _rng.integers(0, 40, (700, 2))]
_X = _rng.standard_normal((1600, 31))
_C0 = _X[:10].copy()


def python_kernel() -> int:
    cells = _CELLS
    parent = list(range(len(cells)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(cells)):
        ri, ci = cells[i]
        for j in range(i + 1, len(cells)):
            rj, cj = cells[j]
            if max(abs(ri - rj), abs(ci - cj)) <= 2:
                a, b = find(i), find(j)
                if a != b:
                    parent[a] = b
    return len({find(i) for i in range(len(cells))})


def numpy_kernel() -> float:
    centres = _C0.copy()
    for _ in range(40):
        labels = ((_X[:, None, :] - centres[None]) ** 2).sum(-1).argmin(1)
        for k in range(len(centres)):
            members = labels == k
            if members.any():
                centres[k] = _X[members].mean(0)
    return float(centres.sum())


def startup_kernel() -> None:
    proc = subprocess.Popen([sys.executable, "-c", "import numpy"])
    # Not ``subprocess.run(timeout=...)``: its wait polls at intervals of up
    # to 50 ms, which would blur a 0.25 s kernel; a blocking wait is exact.
    timer = threading.Timer(60, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code:
        raise subprocess.CalledProcessError(code, proc.args)


KERNELS = {"python": python_kernel, "numpy": numpy_kernel, "startup": startup_kernel}


def probe(names: tuple[str, ...]) -> dict[str, float]:
    """Wall seconds of one run of each named kernel."""
    times = {}
    for name in names:
        start = time.perf_counter()
        KERNELS[name]()
        times[name] = time.perf_counter() - start
    return times


class Gauge:
    """Scales the wall time of consecutive stages to reference seconds.

    The kernel time of a stage is the mean of the probes just before and
    just after it; the probe after one stage is the probe before the next.
    """

    def __init__(self, kernels: tuple[str, ...]) -> None:
        self.kernels = kernels
        self._before = probe(kernels)
        self.factors: list[float] = []  # kernel time / NOMINAL_S, per stage

    def scale(self, wall: float, kernels: tuple[str, ...], probe_after: bool = True) -> float:
        """Reference seconds of a stage that has just taken ``wall`` seconds
        and does the kind of work of ``kernels``, some of the gauge's kernels.

        A stage too short to drift in gives ``probe_after=False`` and is
        gauged by the probe before it alone.
        """
        after = probe(self.kernels) if probe_after else self._before
        kernel_s = sum(self._before[k] + after[k] for k in kernels) / 2
        self._before = after
        factor = kernel_s / sum(NOMINAL_S[k] for k in kernels)
        self.factors.append(factor)
        return wall / factor
