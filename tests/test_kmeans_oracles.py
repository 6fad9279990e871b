"""Differential tests: the bound-pruned Lloyd loop against the unpruned one.

The oracle below is the earlier ``run_kmeans``: every pass computes the full
cell-to-centroid distance matrix, and every centroid is the mean of
``X[labels == j]``.  The library must reproduce it exactly: the same labels,
the same centroid and inertia bits, the same inertia history, iteration
count and stopping reason, and the same error when a run fails.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gridclust.errors import GridClustError, InternalError
from gridclust.kmeans import (
    ClusterMap,
    FeatureMatrix,
    _kmeanspp_init,
    build_features,
    run_kmeans,
)
from gridclust.synth import make_planted_stack


def oracle_sq_distances(X, centroids):
    n, k = X.shape[0], centroids.shape[0]
    out = np.empty((n, k), dtype=np.float64)
    for j in range(k):
        diff = X - centroids[j]
        out[:, j] = np.einsum("ij,ij->i", diff, diff)
    return out


def oracle_labels_grid(features, point_labels):
    grid = np.full(features.geometry.shape, -1, dtype=np.int32)
    for cell, lab in zip(features.cells, point_labels):
        grid[cell.row, cell.col] = lab
    return grid


def oracle_run_kmeans(features, k, seed=0, max_iter=300):
    X = features.matrix
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(X, k, rng)

    prev_labels = None
    history = []
    converged_by = "max_iter"
    labels = np.zeros(n, dtype=np.int64)
    iterations = 0

    for iterations in range(1, max_iter + 1):
        dists = oracle_sq_distances(X, centroids)
        labels = np.argmin(dists, axis=1)
        own = dists[np.arange(n), labels]
        inertia = float(own.sum())

        counts = np.bincount(labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            # The farthest point among clusters that keep another member.
            far = None
            for i in range(n):
                if counts[labels[i]] >= 2 and (far is None or own[i] > own[far]):
                    far = i
            counts[labels[far]] -= 1
            counts[j] += 1
            labels[far] = j

        if history and inertia > history[-1] * (1.0 + 1e-12) + 1e-12:
            raise InternalError(
                f"k-means inertia increased between iterations: {history[-1]} -> {inertia}"
            )
        history.append(inertia)

        if prev_labels is not None and np.array_equal(labels, prev_labels):
            converged_by = "stable"
            break
        prev_labels = labels

        new_centroids = np.empty_like(centroids)
        for j in range(k):
            new_centroids[j] = X[labels == j].mean(axis=0)
        centroids = new_centroids

    final_centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    for j in range(k):
        final_centroids[j] = X[labels == j].mean(axis=0)
    dists = oracle_sq_distances(X, final_centroids)
    inertia = float(dists[np.arange(n), labels].sum())

    return ClusterMap(
        geometry=features.geometry,
        labels=oracle_labels_grid(features, labels),
        k=k,
        centroids=final_centroids,
        inertia=inertia,
        iterations=iterations,
        seed=seed,
        inertia_history=tuple(history),
        converged_by=converged_by,
    )


def outcome(fn, *args, **kwargs):
    """Every output field, bit for bit, or the error the run ended in."""
    try:
        with warnings.catch_warnings():
            # Both loops warn alike when a cluster empties and its mean is NaN.
            warnings.simplefilter("ignore", RuntimeWarning)
            run = fn(*args, **kwargs)
    except GridClustError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (
        run.labels.tobytes(),
        run.centroids.tobytes(),
        repr(run.inertia),
        repr(run.inertia_history),
        run.iterations,
        run.converged_by,
    )


def assert_matches_oracle(features, k, **kwargs):
    expected = outcome(oracle_run_kmeans, features, k, **kwargs)
    assert outcome(run_kmeans, features, k, **kwargs) == expected


SCALES = st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3])
MAX_ITERS = st.sampled_from([300, 300, 1, 2, 5])


@st.composite
def integer_matrices(draw):
    """Small-integer values: many duplicate rows and many distance ties."""
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 5))
    span = draw(st.integers(0, 4))
    ints = draw(hnp.arrays(np.int64, (n, p), elements=st.integers(-span, span)))
    return ints * draw(SCALES)


@st.composite
def clustered_matrices(draw):
    """Gaussian blobs around a few planted centers, so runs take many passes."""
    n = draw(st.integers(2, 80))
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.normal(0.0, 3.0, size=(draw(st.integers(1, 6)), p))
    X = centers[rng.integers(len(centers), size=n)] + rng.normal(size=(n, p))
    return X * draw(SCALES)


@given(X=integer_matrices(), data=st.data())
def test_tie_heavy_matrices_match_the_unpruned_loop(X, data):
    features = FeatureMatrix.from_matrix(X)
    k = data.draw(st.integers(1, X.shape[0]), label="k")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    assert_matches_oracle(
        features, k, seed=seed, max_iter=data.draw(MAX_ITERS, label="max_iter"),
    )


@given(X=clustered_matrices(), data=st.data())
def test_clustered_matrices_match_the_unpruned_loop(X, data):
    features = FeatureMatrix.from_matrix(X)
    k = data.draw(st.integers(1, X.shape[0]), label="k")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    assert_matches_oracle(
        features, k, seed=seed, max_iter=data.draw(MAX_ITERS, label="max_iter"),
    )


@given(
    values=hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(-3, 3)),
    scale=SCALES,
    data=st.data(),
)
def test_one_feature_matches_the_unpruned_loop(values, scale, data):
    features = FeatureMatrix.from_matrix(values * scale)
    k = data.draw(st.integers(1, values.size), label="k")
    assert_matches_oracle(features, k, seed=data.draw(st.integers(0, 2**16), label="seed"))


@pytest.mark.parametrize("k", [8, 10, 12])
def test_noisy_planted_stack_matches_the_unpruned_loop(k):
    stack, _ = make_planted_stack(24, 24, 31, 15, seed=3)
    X = build_features(stack).matrix
    noisy = X + np.random.default_rng(k).normal(0.0, 0.5, X.shape)
    features = FeatureMatrix.from_matrix(noisy)
    for seed in range(4):
        assert_matches_oracle(features, k, seed=seed)


def test_exact_tie_at_the_bound_is_not_pruned():
    # Seed 18 starts the centroids at 2 and -1.  After the first pass cluster
    # 0's centroid moves from 2 to 1, which is the largest shift, so the cell
    # at 0 ends up at distance 1 from both centroids: its bound equals its
    # own distance, and the tie must go to cluster 0.
    features = FeatureMatrix.from_matrix([-2.0, -1.0, 0.0, 0.5, 0.5, 2.0])
    assert_matches_oracle(features, 2, seed=18)


@pytest.mark.parametrize(
    "values, k, seed",
    [([0, -1, -2, 1, -2, -1, 0, 0, -2, 2, 1], 11, 9), ([0, 0, 0, 1, 1], 5, 0)],
)
def test_empty_cluster_repair_matches_the_unpruned_loop(values, k, seed):
    assert_matches_oracle(FeatureMatrix.from_matrix(np.array(values, float)), k, seed=seed)
