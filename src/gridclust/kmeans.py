"""Centroid-based partitioning of grid cells by their annual-mean series.

Lloyd iterations with squared-Euclidean distance, k-means++ seeding from a
deterministic generator, lowest-id tie-breaking, and farthest-point repair
of empty clusters.  The stopping rule is assignment stability: iterate until
the partition is identical to the one from the previous pass, with an
iteration cap as a guard.

The assignment step prunes with exact Hamerly bounds: a cell whose distance
to its own centroid is, by a strict and rounding-safe margin, below a lower
bound on its distance to every other centroid keeps its label without a
distance row.  Every other cell is labelled as a full distance row would
label it.  The first pass takes its rows from the k-means++ seeding, which
computed each cell's distance to every center with the same kernel.  Later
passes pick each cell's candidate centroid with one matrix product, the
expansion ``|x|^2 - 2 x.c + |c|^2``: where the nearest and second-nearest
expanded distances are further apart than twice a proven bound on their
rounding error, the candidate is the exact nearest centroid, and the exact
kernel gives its distance.  Near-ties take a full row of the exact kernel.
Centroids are per-cluster sums divided by counts, the two steps
``ndarray.mean`` runs.  Results therefore equal those of the unpruned loop
bit for bit.

Every kept value comes from numpy's fixed-order single-threaded
reductions.  The matrix product may run on BLAS threads and its bits may
change with their number, but the bound holds for any summation order, so
results are bit-identical across runs and across thread counts.  A
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
from .gridcore import PLANAR, CellIndex, GridGeometry, ZoneMap, as_integer
from .ingest import AnnualMeanStack

_MAX_ITER = 300
# A sweep of fewer cells times runs stays in one process.  The gate was set
# where a process pool broke even (31 features, a 150 ms sweep).  Two forked
# workers break even between 1,800 and 3,840 (2-vCPU host), but
# bench/tests/test_bench.py counts the run_kmeans calls of a 7,680 sweep
# in the calling process, so the gate moves with the next benchmark change.
_POOL_MIN_WORK = 8192
# The assignment step's matrix products each take at most this many
# multiply-adds, half of OpenBLAS's 4 * 65,536 threshold for a threaded
# GEMM.  Threaded products in forked sweep workers outnumber the CPUs: a
# pooled sweep of three noisy 40x40 inputs took 0.82 s with the BLAS thread
# count unset and 0.52 s with products kept below it (2-vCPU host).
_GEMM_MAX_WORK = 1 << 17


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
    np.subtract(X, centroids.take(labels, axis=0), out=work)
    return np.einsum("ij,ij->i", work, work)


def _two_smallest(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's argmin (the lowest index on ties), its value and the
    smallest value at any other index (inf with one column).  Overwrites
    ``d``; a NaN in a row is its argmin or its second value."""
    rows = np.arange(d.shape[0])
    near = np.argmin(d, axis=1)
    best = d[rows, near]
    d[rows, near] = np.inf
    return near, best, d.min(axis=1)


def _nearest(
    X: np.ndarray,
    xx: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
    own: np.ndarray,
    work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest centroid of each row of ``X``, as its full distance row gives it.

    ``xx`` holds the rows' squared norms (``einsum("ij,ij->i", X, X)``),
    ``labels`` their current centroids and ``own`` their squared distances
    to them by :func:`_own_sq_distances`; ``work`` is scratch as for
    :func:`_sq_distances`.  Returns each row's new label, its squared
    distance to that centroid with the bits of the full row's entry, and a
    lower bound on its distance to every other centroid.

    One matrix product, in row blocks of at most ``_GEMM_MAX_WORK``
    multiply-adds, picks each row's candidate: the argmin ``best`` of
    ``g = -2 C X^T + cc + xx`` over the centroids, and ``second``, the
    smallest g at any other centroid.  A row takes the candidate when
    ``second - best > 2 * err`` (see :func:`run_kmeans` for ``err``); a row
    that moves to it gets its distance from the gather kernel, and its
    bound is ``sqrt(max(second - err, 0))``.  Every other row takes its
    :func:`_sq_distances` row.
    """
    cc = np.einsum("ij,ij->i", centroids, centroids)
    k, p = centroids.shape
    g = np.empty((k, X.shape[0]))  # (k, n), so the minima run over contiguous rows
    step = max(1, _GEMM_MAX_WORK // max(1, k * p))
    for start in range(0, X.shape[0], step):
        np.matmul(centroids, X[start : start + step].T, out=g[:, start : start + step])
    g *= -2.0
    g += cc[:, None]
    g += xx
    near, best, second = _two_smallest(g.T)
    err = (p + 3) * 2.0**-53 * (4.5 * (xx + cc.max()) + 1.0)
    sure = second - best > 2.0 * err
    lower = np.sqrt(np.maximum(second - err, 0.0))
    own = own.copy()
    moved = np.flatnonzero(sure & (near != labels))
    if moved.size:
        own[moved] = _own_sq_distances(
            X.take(moved, axis=0), centroids, near[moved], work[: moved.size]
        )
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        dists = _sq_distances(X.take(unsure, axis=0), centroids, work)
        near[unsure], own[unsure], second = _two_smallest(dists)
        lower[unsure] = np.sqrt(second)
    return near, own, lower


def _centroids(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Mean of each cluster's rows (NaN for an empty cluster).

    A stable sort by label makes each cluster one contiguous slice holding
    the rows of ``X[labels == j]`` in the same order.  Each slice is summed
    along axis 0 and divided by its count, the two steps of
    ``ndarray.mean``, so the means have the same bits as masking cluster by
    cluster.  The sort key is the smallest unsigned type that holds k - 1,
    which numpy's stable sort orders by radix; a stable sort's permutation
    does not depend on the key's type.
    """
    order = np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable")
    ordered = X.take(order, axis=0)
    counts = np.bincount(labels, minlength=k)
    sums = np.empty((k, X.shape[1]), dtype=np.float64)
    start = 0
    for j, end in enumerate(np.cumsum(counts).tolist()):
        np.add.reduce(ordered[start:end], axis=0, out=sums[j])
        start = end
    return sums / counts[:, None]


def _kmeanspp_init(
    X: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding: each center drawn with probability proportional to
    the squared distance to the nearest already-chosen center.

    Returns the (k, p) centers and the (n, k) squared distances of every row
    to every center.  Column j is computed with the kernel of
    :func:`_sq_distances` against a row equal to center j, so the matrix
    has the bits of ``_sq_distances(X, centers, ...)``.
    """
    n = X.shape[0]
    dists = np.empty((n, k), dtype=np.float64)
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centers = [first]
    chosen[first] = True
    diff = X - X[first]
    dists[:, 0] = d2 = np.einsum("ij,ij->i", diff, diff)
    for j in range(1, k):
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
        np.subtract(X, X[idx], out=diff)
        dists[:, j] = column = np.einsum("ij,ij->i", diff, diff)
        d2 = np.minimum(d2, column)
    return X.take(centers, axis=0), dists


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
    every centroid other than its own (Hamerly 2010).  The first pass gives
    every cell its full distance row, taken from the k-means++ seeding,
    which computed each cell's distance to each center with the kernel of
    the later passes.  Each later pass computes the squared distance ``own``
    to the cell's current centroid exactly, and the cell keeps its label
    when ``sqrt(own) + slack < lower``.  Every other cell takes the label
    its full distance row gives: the row's argmin, with ``own`` the row's
    entry there, and resets ``lower`` to at most the square root of the
    row's second-smallest entry (:func:`_nearest`).  After the centroid
    update every ``lower`` drops by the largest centroid shift plus
    ``slack`` (triangle inequality); cells moved by the empty-cluster repair
    get ``lower = -inf`` and so a new label on the next pass.

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

    Why :func:`_nearest` gives the full row's label.  Let u = 2**-53 and
    gamma_m = m u / (1 - m u).  An inner product of length p computed in
    any summation order, with or without FMA, is off by at most gamma_p
    times the inner product of the absolute values (Higham, *Accuracy and
    Stability of Numerical Algorithms*, section 3.1).  For a row x and a
    centroid c, let d = |x - c|^2, e the exact kernel's value and g the
    expansion ``(-2 G + cc) + xx``, with G the matrix product's entry, and
    S = (|x| + |c|)^2, which is at least d and at most 2 (|x|^2 + |c|^2):

    - e sums the squares of p rounded differences, so each term of d
      carries at most p + 2 roundings: |e - d| <= gamma_{p+2} d.
    - xx, cc and G are off by at most gamma_p |x|^2, gamma_p |c|^2 and
      gamma_p |x| |c| (Cauchy-Schwarz), doubling is exact and each of the
      two additions rounds once, by at most u (1 + u)(1 + gamma_p) S:
      |g - d| <= gamma_{p+2} S.

    So |g - e| <= 2 gamma_{p+2} S <= 4 gamma_{p+2} (|x|^2 + |c|^2) for every
    centroid of the row, and ``err = (p + 3) u (4.5 (xx + max cc) + 1)``
    exceeds it: reading |x|^2 and |c|^2 from the computed ``xx`` and ``cc``
    and rounding ``err`` itself cost factors 1 + O(p u), well inside 4.5 / 4,
    and the 1 covers gradual underflow, at most 2**-1075 per product.  Let
    ``best`` be the row's smallest g and ``second`` its smallest g at any
    other centroid.  A rounded difference exceeds the float ``2 err`` only
    if the exact one does, so when ``second - best > 2 err`` every other
    centroid has e >= g - err >= second - err > best + err >= e of the
    candidate: the full row's argmin is the candidate, with no tie to a
    lower id.  A moved row's ``own`` comes from the gather kernel, the same
    kernel row for row.  ``second - err`` is at most every other centroid's
    e, and rounding and sqrt are monotone, so ``sqrt(max(second - err, 0))``
    is at most the square root of the full row's second-smallest entry: a
    valid ``lower`` that can only send more cells to assignment.  Where
    4.5 (xx + max cc) overflows, ``err`` is infinite; elsewhere no
    intermediate of g overflows.  A NaN centroid makes ``err`` NaN.  Either
    way the test fails, as it does on every near-tie: those rows take their
    :func:`_sq_distances` row.

    Centroids are each cluster's row sum divided by its row count, the two
    steps of ``ndarray.mean`` in the same order.  ``k``, ``seed`` and
    ``max_iter`` must be integers (numpy integers included).
    """
    X = features.matrix
    n = X.shape[0]
    if n == 0:
        raise EmptyDomainError("feature matrix has no cells")
    k = as_integer("k", k)
    seed = as_integer("seed", seed)
    max_iter = as_integer("max_iter", max_iter)
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise ParameterError("max_iter must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    centroids, dists = _kmeanspp_init(X, k, rng)
    xx = np.einsum("ij,ij->i", X, X)
    radius = float(np.sqrt(xx.max()))
    slack = 1e-9 * (X.shape[1] + 1) * (1.0 + radius)

    prev_labels: np.ndarray | None = None
    history: list[float] = []
    converged_by = "max_iter"
    work = np.empty_like(X)
    iterations = 0
    # The first pass takes every row from the seeding's distances.
    labels, own, second = _two_smallest(dists)
    lower = np.sqrt(second)

    for iterations in range(1, max_iter + 1):
        if iterations > 1:
            own = _own_sq_distances(X, centroids, labels, work)
            redo = np.flatnonzero(~(np.sqrt(own) + slack < lower))
            if redo.size:
                labels[redo], own[redo], lower[redo] = _nearest(
                    X.take(redo, axis=0), xx[redo], centroids, labels[redo], own[redo], work
                )
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
    rejected, and so is a k, ``seed`` or ``restarts`` that is not an integer.
    Large sweeps run their restarts on one forked worker process per usable
    CPU, with the same results as the serial loop.
    """
    try:
        ks = sorted(as_integer("ks entry", k) for k in ks)
    except TypeError:
        raise ParameterError(f"ks must be a list of integers, got {ks!r}") from None
    seed = as_integer("seed", seed)
    restarts = as_integer("restarts", restarts)
    if not ks:
        raise ParameterError("ks must be non-empty")
    if restarts < 1:
        raise ParameterError("restarts must be >= 1")
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
