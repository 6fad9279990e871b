"""Centroid-based partitioning of grid cells by their annual-mean series.

Lloyd iterations with squared-Euclidean distance, k-means++ seeding from a
deterministic generator, lowest-id tie-breaking, and farthest-point repair
of empty clusters.  The stopping rule is assignment stability: iterate until
the partition is identical to the one from the previous pass, with an
iteration cap as a guard.

The assignment step prunes with exact Hamerly bounds: a cell whose distance
to its own centroid is, by a strict and rounding-safe margin, below a lower
bound on its distance to every other centroid keeps its label without a
distance row.  Every other cell gets a full row.  Results therefore equal
those of the unpruned loop bit for bit.

All reductions run through numpy's fixed-order single-threaded paths, so
results are bit-identical across runs and across caller thread counts.  A
large :func:`sweep_k` runs its restarts on forked worker processes, which
take them one at a time from a shared queue; each run depends only on its
seed, so the results are those of the serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._forked import forked_map
from ._forked import usable_cpus as _usable_cpus
from .errors import EmptyDomainError, InternalError, ParameterError
from .gridcore import PLANAR, CellIndex, GridGeometry, ZoneMap
from .ingest import AnnualMeanStack

_MAX_ITER = 300
# A sweep of fewer cells times runs stays in one process.  The gate was set
# where a process pool broke even (31 features, a 150 ms sweep).  Two forked
# workers break even between 1,800 and 3,840 (2-vCPU host), but
# bench/tests/test_bench.py counts the run_kmeans calls of a 7,680 sweep
# in the calling process, so the gate moves with the next benchmark change.
_POOL_MIN_WORK = 8192


@dataclass(frozen=True)
class FeatureMatrix:
    """One feature vector per unmasked cell (component j = year j's mean).

    ``means``/``scales`` record the standardization applied; ``scales`` stays
    1.0 for zero-variance components, which therefore standardize to zeros.
    """

    geometry: GridGeometry
    cells: tuple[CellIndex, ...]
    matrix: np.ndarray
    years: tuple[int, ...]
    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.float64, copy=True)
        if mat.ndim != 2 or mat.shape[0] != len(self.cells):
            raise ParameterError("matrix must be (n_cells, n_features)")
        if mat.shape[1] != len(self.years):
            raise ParameterError("one feature per year required")
        means = np.array(self.means, dtype=np.float64, copy=True)
        scales = np.array(self.scales, dtype=np.float64, copy=True)
        if means.shape != (mat.shape[1],) or scales.shape != (mat.shape[1],):
            raise ParameterError("means/scales must have one entry per feature")
        if not np.all(scales > 0):
            raise ParameterError("scales must be strictly positive")
        if not np.isfinite(mat).all():
            raise ParameterError("feature values must be finite")
        for arr in (mat, means, scales):
            arr.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "cells", tuple(CellIndex(*c) for c in self.cells))
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))
        # The cells' row and column indices, built once for every run's labels grid.
        rows, cols = np.array(self.cells, dtype=np.intp).reshape(-1, 2).T
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_cols", cols)

    @classmethod
    def from_matrix(cls, matrix) -> "FeatureMatrix":
        """Wrap a bare (n, p) or (n,) array as features on a synthetic n x 1 grid."""
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.ndim == 1:
            mat = mat.reshape(-1, 1)
        n, p = mat.shape
        geom = GridGeometry(PLANAR, 0.0, 0.0, 1.0, 1.0, n, 1)
        cells = tuple(CellIndex(i, 0) for i in range(n))
        return cls(geom, cells, mat, tuple(range(p)), np.zeros(p), np.ones(p))


@dataclass(frozen=True)
class ClusterMap:
    """Result of one k-means run: labels grid, centroids, inertia, trace."""

    geometry: GridGeometry
    labels: np.ndarray
    k: int
    centroids: np.ndarray
    inertia: float
    iterations: int
    seed: int
    inertia_history: tuple[float, ...] = ()
    converged_by: str = "stable"

    def __post_init__(self) -> None:
        labels = np.array(self.labels, dtype=np.int32, copy=True)
        if labels.shape != self.geometry.shape:
            raise ParameterError("labels grid must match the geometry shape")
        present = labels[labels >= 0]
        if present.size:
            if present.max() >= self.k:
                raise ParameterError("label exceeds k")
            counts = np.bincount(present, minlength=self.k)
            if np.any(counts == 0):
                raise ParameterError("empty cluster in final result")
        cents = np.array(self.centroids, dtype=np.float64, copy=True)
        labels.setflags(write=False)
        cents.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "centroids", cents)
        if self.inertia < 0:
            raise ParameterError("inertia must be non-negative")

    def zone_map(self) -> ZoneMap:
        return ZoneMap(self.geometry, self.labels, {})


def build_features(stack: AnnualMeanStack) -> FeatureMatrix:
    """Assemble per-cell annual-mean vectors over the stack's combined mask.

    Each component is z-scored across cells; a component with zero variance
    keeps scale 1 and becomes all zeros.
    """
    rows, cols = np.nonzero(stack.mask)
    if rows.size == 0:
        raise EmptyDomainError("no cell is valid in every year")
    cells = tuple(CellIndex(int(r), int(c)) for r, c in zip(rows, cols))
    mat = np.column_stack([f.values[rows, cols] for f in stack.fields])
    means = mat.mean(axis=0)
    stds = mat.std(axis=0)
    scales = np.where(stds > 0, stds, 1.0)
    mat = (mat - means) / scales
    return FeatureMatrix(stack.geometry, cells, mat, stack.years, means, scales)


def _sq_distances(X: np.ndarray, centroids: np.ndarray, work: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances with a fixed reduction order.

    ``work`` is a C-contiguous float array with at least n rows and X's
    columns; its leading rows receive each column's differences.  Reusing
    one scratch array across passes saves large allocations per pass.
    """
    n, k = X.shape[0], centroids.shape[0]
    out = np.empty((n, k), dtype=np.float64)
    diff = work[:n]
    for j in range(k):
        np.subtract(X, centroids[j], out=diff)
        out[:, j] = np.einsum("ij,ij->i", diff, diff)
    return out


def _own_sq_distances(
    X: np.ndarray, centroids: np.ndarray, labels: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Squared distance of each row to its own centroid.

    Row for row the same kernel as :func:`_sq_distances`, so each value has
    the same bits as the matching entry of the full distance matrix.
    ``work``, a scratch array shaped like ``X``, receives the differences.
    """
    np.subtract(X, centroids[labels], out=work)
    return np.einsum("ij,ij->i", work, work)


def _centroids(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Mean of each cluster's rows (NaN for an empty cluster).

    A stable sort by label makes each cluster one contiguous slice holding
    the rows of ``X[labels == j]`` in the same order, so the means have the
    same bits as masking cluster by cluster.
    """
    ordered = X[np.argsort(labels, kind="stable")]
    ends = np.cumsum(np.bincount(labels, minlength=k)).tolist()
    out = np.empty((k, X.shape[1]), dtype=np.float64)
    start = 0
    for j, end in enumerate(ends):
        out[j] = ordered[start:end].mean(axis=0)
        start = end
    return out


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each center drawn with probability proportional to
    the squared distance to the nearest already-chosen center."""
    n = X.shape[0]
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centers = [first]
    chosen[first] = True
    diff = X - X[first]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # All remaining points coincide with a center; take the first
            # unchosen index for determinism.
            idx = int(np.flatnonzero(~chosen)[0])
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centers.append(idx)
        chosen[idx] = True
        diff = X - X[idx]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return X[np.array(centers)].copy()


def _labels_grid(features: FeatureMatrix, point_labels: np.ndarray) -> np.ndarray:
    grid = np.full(features.geometry.shape, -1, dtype=np.int32)
    grid[features._rows, features._cols] = point_labels
    return grid


def run_kmeans(
    features: FeatureMatrix,
    k: int,
    seed: int = 0,
    max_iter: int = _MAX_ITER,
) -> ClusterMap:
    """One deterministic Lloyd run from a k-means++ initialization.

    Assignment ties go to the lowest cluster id.  An iteration that leaves a
    cluster empty reassigns to it the point farthest from its own centroid
    among clusters that keep at least one other member, so no cluster empties.
    Inertia is verified non-increasing on every iteration; an increase
    raises :class:`InternalError`.

    Assignment keeps, per cell, ``lower``: a lower bound on the distance to
    every centroid other than its own (Hamerly 2010).  Each pass computes the
    squared distance ``own`` to the cell's current centroid exactly, and the
    cell keeps its label when ``sqrt(own) + slack < lower``.  Every other
    cell gets its full distance row, takes the row's argmin and resets
    ``lower`` to the square root of the row's second-smallest entry.  After
    the centroid update every ``lower`` drops by the largest centroid shift
    plus ``slack`` (triangle inequality); cells moved by the empty-cluster
    repair get ``lower = -inf`` and so a full row on the next pass.

    Why the skipped rows would have given the same label: centroids are
    rows or means of rows of X, so every distance is at most 2R, R the
    largest row norm.  A computed distance, its square root or a computed
    shift is off by at most about (p + 4) * 2**-53 * 2R, far below
    ``slack = 1e-9 * (p + 1) * (1 + R)``.  The bound updates subtract one
    ``slack`` per pass and the test adds one more, so when the test passes
    every other centroid's computed squared distance exceeds ``own``
    strictly: the full row's argmin would be the same label, with no tie to
    a lower id.  ``own``, and with it the inertia, is the same computed
    value as the full row's entry.  A NaN bound fails the test.
    """
    X = features.matrix
    n = X.shape[0]
    if n == 0:
        raise EmptyDomainError("feature matrix has no cells")
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise ParameterError("max_iter must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(X, k, rng)
    radius = float(np.sqrt(np.einsum("ij,ij->i", X, X).max()))
    slack = 1e-9 * (X.shape[1] + 1) * (1.0 + radius)

    prev_labels: np.ndarray | None = None
    history: list[float] = []
    converged_by = "max_iter"
    labels = np.zeros(n, dtype=np.int64)
    lower = np.full(n, -np.inf)  # the first pass computes every row
    work = np.empty_like(X)
    iterations = 0

    for iterations in range(1, max_iter + 1):
        own = _own_sq_distances(X, centroids, labels, work)
        redo = np.flatnonzero(~(np.sqrt(own) + slack < lower))
        if redo.size:
            dists = _sq_distances(X[redo], centroids, work)
            near = np.argmin(dists, axis=1)
            rows = np.arange(redo.size)
            labels[redo] = near
            own[redo] = dists[rows, near]
            dists[rows, near] = np.inf
            lower[redo] = np.sqrt(dists.min(axis=1))
        inertia = float(own.sum())

        counts = np.bincount(labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            far = int(np.argmax(np.where(counts[labels] > 1, own, -np.inf)))
            counts[labels[far]] -= 1
            counts[j] = 1
            labels[far] = j
            lower[far] = -np.inf

        if history and inertia > history[-1] * (1.0 + 1e-12) + 1e-12:
            raise InternalError(
                f"k-means inertia increased between iterations: {history[-1]} -> {inertia}"
            )
        history.append(inertia)

        if prev_labels is not None and np.array_equal(labels, prev_labels):
            converged_by = "stable"
            break
        prev_labels = labels.copy()

        new_centroids = _centroids(X, labels, k)
        step = new_centroids - centroids
        lower -= np.sqrt(np.einsum("ij,ij->i", step, step).max()) + slack
        centroids = new_centroids

    final_centroids = _centroids(X, labels, k)
    inertia = float(_own_sq_distances(X, final_centroids, labels, work).sum())
    grid = _labels_grid(features, labels)
    return ClusterMap(
        features.geometry, grid, k, final_centroids, inertia, iterations, seed,
        tuple(history), converged_by,
    )


def _first_lowest(runs: Iterable[ClusterMap]) -> list[ClusterMap]:
    """Per k, in order of first appearance, the first run of strictly lowest
    inertia among ``runs``."""
    best: dict[int, ClusterMap] = {}
    for run in runs:
        if run.k not in best or run.inertia < best[run.k].inertia:
            best[run.k] = run
    return list(best.values())


def sweep_k(
    features: FeatureMatrix,
    ks: list[int] | tuple[int, ...],
    seed: int = 0,
    restarts: int = 10,
) -> list[ClusterMap]:
    """Best-of-``restarts`` run per requested k, ordered by ascending k.

    Restart r uses derived seed ``seed + r``, so a larger restart budget can
    only improve (or match) the kept inertia for the same base seed.  The
    first run with the strictly lowest inertia is kept.  A k listed twice is
    rejected.  Large sweeps run their restarts on one forked worker process
    per usable CPU, with the same results as the serial loop.
    """
    if not ks:
        raise ParameterError("ks must be non-empty")
    if restarts < 1:
        raise ParameterError("restarts must be >= 1")
    ks = sorted(int(k) for k in ks)
    repeated = sorted({a for a, b in zip(ks, ks[1:]) if a == b})
    if repeated:
        raise ParameterError(f"ks lists k = {', '.join(map(str, repeated))} more than once")
    jobs = [(k, seed + r) for k in ks for r in range(restarts)]
    large = len(features.cells) * len(jobs) >= _POOL_MIN_WORK
    runs = forked_map(
        lambda job: run_kmeans(features, job[0], seed=job[1]),
        jobs,
        _usable_cpus() if large else 1,
    )
    return _first_lowest(runs)
