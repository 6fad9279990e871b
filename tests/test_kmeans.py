import functools
import itertools
import multiprocessing
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import re

import numpy as np
import pytest

from gridclust import kmeans
from gridclust.errors import EmptyDomainError, InternalError, ParameterError
from gridclust.gridcore import CELSIUS, CellIndex
from gridclust.ingest import AnnualMeanStack
from gridclust.kmeans import ClusterMap, FeatureMatrix, build_features, run_kmeans, sweep_k

from conftest import make_field, planar_geom
from test_cli import fresh_python


def exhaustive_best_partition(X, k):
    """Brute-force optimum over all assignments into k non-empty clusters."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    best_inertia = np.inf
    best_labels = None
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        labels = np.array(labels)
        inertia = 0.0
        for j in range(k):
            pts = X[labels == j]
            inertia += ((pts - pts.mean(axis=0)) ** 2).sum()
        if inertia < best_inertia - 1e-12:
            best_inertia = inertia
            best_labels = labels
    return best_labels, best_inertia


def partition_sets(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


def stack_from_fields(fields, years=None):
    years = years or tuple(range(len(fields)))
    mask = np.ones(fields[0].geometry.shape, dtype=bool)
    for f in fields:
        mask &= f.mask
    return AnnualMeanStack(fields[0].geometry, CELSIUS, years, tuple(fields), mask)


class TestBuildFeatures:
    def test_direct_assembly(self):
        f1 = make_field([[10.0]], units=CELSIUS)
        f2 = make_field([[12.0]], units=CELSIUS)
        feats = build_features(stack_from_fields([f1, f2]))
        assert feats.means.tolist() == [10.0, 12.0]
        assert feats.scales.tolist() == [1.0, 1.0]
        assert feats.matrix.tolist() == [[0.0, 0.0]]
        assert feats.cells == ((0, 0),)

    def test_zero_variance_component_standardizes_to_zero(self):
        f1 = make_field([[7.0, 7.0]], units=CELSIUS)
        f2 = make_field([[1.0, 3.0]], units=CELSIUS)
        feats = build_features(stack_from_fields([f1, f2]))
        assert np.all(feats.matrix[:, 0] == 0.0)
        assert feats.scales[0] == 1.0
        assert feats.scales[1] > 0

    def test_vector_length_matches_year_count(self):
        rng = np.random.default_rng(0)
        fields = [make_field(rng.random((3, 3)), units=CELSIUS) for _ in range(31)]
        feats = build_features(stack_from_fields(fields))
        assert feats.matrix.shape == (9, 31)

    def test_masked_cells_excluded(self):
        mask = np.array([[True, False]])
        f = make_field([[1.0, 9.0]], mask=mask, units=CELSIUS)
        feats = build_features(stack_from_fields([f]))
        assert feats.cells == ((0, 0),)

    def test_empty_domain(self):
        mask = np.zeros((1, 2), dtype=bool)
        f = make_field([[0.0, 0.0]], mask=mask, units=CELSIUS)
        with pytest.raises(EmptyDomainError):
            build_features(stack_from_fields([f]))


def features_on_2x2(cells):
    n = len(cells)
    return FeatureMatrix(planar_geom(2, 2), cells, np.zeros((n, 1)), (2000,), np.zeros(1), np.ones(1))


class TestFeatureCells:
    def test_reads_pairs_once_as_int_cells(self):
        feats = features_on_2x2([CellIndex(1, 0), (np.int64(0), np.uint8(1)), [1, 1]])
        assert feats.cells == ((1, 0), (0, 1), (1, 1))
        assert {type(c) for c in feats.cells} == {CellIndex}
        assert {type(v) for c in feats.cells for v in c} == {int}
        grid = run_kmeans(feats, 1).labels
        assert grid.tolist() == [[-1, 0], [0, 0]]

    @pytest.mark.parametrize(
        "cells, named",
        [
            ([(0, 0), (-1, 0)], "feature cell CellIndex(row=-1, col=0) lies outside the grid"),
            ([(0, 2), (0, 0)], "feature cell CellIndex(row=0, col=2) lies outside the grid"),
            ([(1, 1), (1, 1), (2, 0)], "feature cell CellIndex(row=1, col=1) repeats an earlier cell"),
            ([(1, 1), (2, 0), (1, 1)], "feature cell CellIndex(row=2, col=0) lies outside the grid"),
            ([(0, 1), (1, 0), (0, 1), (1, 0)],
             "feature cell CellIndex(row=0, col=1) repeats an earlier cell"),
        ],
    )
    def test_refuses_feature_cells_off_the_grid_or_repeated(self, cells, named):
        # The first such cell in input order is named; (-1, 0) used to label
        # row 1 and a repeat to end in "empty cluster in final result".
        with pytest.raises(ParameterError, match=re.escape(named) + "$"):
            features_on_2x2(cells)

    @pytest.mark.parametrize("cells", [[(0, 0), (0.7, 1)], [(0, 0), (1.0, 1)], [(0, "1")]])
    def test_refuses_feature_cells_that_are_no_integers(self, cells):
        # (0.7, 1) used to be truncated to (0, 1).
        with pytest.raises(ParameterError, match="^feature cell rows must be a 1-D array of int64"):
            features_on_2x2(cells)

    @pytest.mark.parametrize("cells", [[(0, 0, 0)], [0, 1]])
    def test_refuses_feature_cells_that_are_no_pairs(self, cells):
        with pytest.raises(ParameterError, match=r"^feature cells must be \(row, col\) pairs"):
            features_on_2x2(cells)

    def test_cluster_map_refuses_labels_that_equal_no_int(self):
        # [[0.5, 1.2]] used to be truncated to [[0, 1]].
        with pytest.raises(ParameterError, match=re.escape("got 0.5 at cell (0, 0)")):
            ClusterMap(planar_geom(1, 2), [[0.5, 1.2]], 2, np.zeros((2, 1)), 0.0, 1, 0)


class TestFourPointOracle:
    def test_exhaustive_optimum_is_the_expected_split(self):
        labels, inertia = exhaustive_best_partition([[0.0], [1.0], [10.0], [11.0]], 2)
        assert partition_sets(labels) == frozenset({frozenset({0, 1}), frozenset({2, 3})})
        assert inertia == pytest.approx(1.0, abs=1e-12)

    def test_every_seed_reaches_the_optimum(self):
        feats = FeatureMatrix.from_matrix([0.0, 1.0, 10.0, 11.0])
        expected = frozenset({frozenset({0, 1}), frozenset({2, 3})})
        for seed in range(100):
            run = run_kmeans(feats, 2, seed=seed)
            point_labels = run.labels[:, 0]
            assert partition_sets(point_labels) == expected, f"seed {seed}"
            assert run.inertia == pytest.approx(1.0, abs=1e-9)
            assert run.centroids[:, 0].tolist() in ([0.5, 10.5], [10.5, 0.5])


class TestRunKmeans:
    def test_k1_is_seed_independent(self):
        rng = np.random.default_rng(5)
        feats = FeatureMatrix.from_matrix(rng.random((20, 3)))
        a = run_kmeans(feats, 1, seed=0)
        b = run_kmeans(feats, 1, seed=99)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia
        assert np.allclose(a.centroids[0], feats.matrix.mean(axis=0))

    def test_k_equals_n_gives_zero_inertia(self):
        feats = FeatureMatrix.from_matrix(np.arange(6.0))
        run = run_kmeans(feats, 6, seed=1)
        assert run.inertia == 0.0

    def test_parameter_errors(self):
        feats = FeatureMatrix.from_matrix(np.arange(4.0))
        with pytest.raises(ParameterError):
            run_kmeans(feats, 0)
        with pytest.raises(ParameterError):
            run_kmeans(feats, 5)
        with pytest.raises(ParameterError):
            run_kmeans(feats, 2, max_iter=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(ParameterError, match="feature values must be finite"):
            FeatureMatrix.from_matrix([[0.0], [bad], [1.0]])

    def test_negative_seed_rejected(self):
        feats = FeatureMatrix.from_matrix(np.arange(4.0))
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            run_kmeans(feats, 2, seed=-1)
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            sweep_k(feats, [2], seed=-3, restarts=5)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"k": 2.5}, "k"),
            ({"k": 2.0}, "k"),
            ({"k": "2"}, "k"),
            ({"k": 2, "seed": 1.5}, "seed"),
            ({"k": 2, "seed": None}, "seed"),
            ({"k": 2, "max_iter": 2.5}, "max_iter"),
        ],
    )
    def test_non_integer_parameters_rejected(self, kwargs, name):
        feats = FeatureMatrix.from_matrix(np.arange(4.0))
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            run_kmeans(feats, **kwargs)

    def test_numpy_integer_parameters_accepted(self):
        feats = FeatureMatrix.from_matrix(np.arange(6.0))
        run = run_kmeans(feats, np.int64(2), seed=np.uint8(3), max_iter=np.int32(50))
        plain = run_kmeans(feats, 2, seed=3, max_iter=50)
        assert run.labels.tobytes() == plain.labels.tobytes()
        assert (run.k, run.seed, run.inertia) == (plain.k, plain.seed, plain.inertia)
        assert type(run.seed) is int

    def test_one_pass_computes_no_distance_rows(self, monkeypatch):
        # The first pass takes every row from the k-means++ seeding; later
        # passes label cells by the matrix-product filter or full rows.
        calls = []
        for name in ("_nearest", "_sq_distances"):
            kernel = getattr(kmeans, name)
            monkeypatch.setattr(
                kmeans, name, lambda *args, kernel=kernel: calls.append(1) or kernel(*args)
            )
        feats = FeatureMatrix.from_matrix(np.random.default_rng(6).normal(size=(40, 3)))
        run = run_kmeans(feats, 5, seed=2, max_iter=1)
        assert run.iterations == 1
        assert calls == []
        run_kmeans(feats, 5, seed=2, max_iter=3)
        assert calls

    def test_duplicate_points_never_leave_empty_clusters(self):
        feats = FeatureMatrix.from_matrix([0.0, 0.0, 0.0, 1.0])
        run = run_kmeans(feats, 3, seed=0)
        present = run.labels[run.labels >= 0]
        assert sorted(set(present.tolist())) == [0, 1, 2]

    @pytest.mark.parametrize(
        "values, k, seed",
        [([0, -1, -2, 1, -2, -1, 0, 0, -2, 2, 1], 11, 9), ([0, 0, 0, 1, 1], 5, 0)],
    )
    def test_empty_cluster_repair_never_empties_a_singleton(self, values, k, seed):
        # Moving the only member of a cluster used to leave a NaN centroid,
        # and the run alternated between inertia 0 and NaN until max_iter.
        feats = FeatureMatrix.from_matrix(np.array(values, dtype=float))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run = run_kmeans(feats, k, seed=seed)
        assert run.converged_by == "stable"
        assert np.isfinite(run.inertia)
        assert np.all(np.isfinite(run.inertia_history))
        assert np.all(np.isfinite(run.centroids))

    def test_monotone_inertia_and_stable_convergence(self):
        rng = np.random.default_rng(42)
        stable = 0
        runs = 30
        for i in range(runs):
            n = int(rng.integers(10, 120))
            p = int(rng.integers(1, 8))
            k = int(rng.integers(1, min(n, 9)))
            feats = FeatureMatrix.from_matrix(rng.normal(size=(n, p)))
            run = run_kmeans(feats, k, seed=i)
            hist = run.inertia_history
            assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(hist, hist[1:]))
            if run.converged_by == "stable":
                stable += 1
        assert stable >= 0.95 * runs

    def test_bit_identical_across_runs_and_threads(self):
        rng = np.random.default_rng(8)
        feats = FeatureMatrix.from_matrix(rng.normal(size=(80, 5)))

        def job(_):
            return run_kmeans(feats, 4, seed=3)

        base = job(None)
        again = job(None)
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(job, range(8)))
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=fork) as pool:
            forked = list(pool.map(functools.partial(run_kmeans, feats, 4), [3] * 4))
        for other in [again] + concurrent + forked:
            assert np.array_equal(base.labels, other.labels)
            assert base.inertia == other.inertia
            assert np.array_equal(base.centroids, other.centroids)

    def test_relabeling_leaves_inertia_unchanged(self):
        rng = np.random.default_rng(9)
        feats = FeatureMatrix.from_matrix(rng.normal(size=(40, 3)))
        run = run_kmeans(feats, 4, seed=0)
        X = feats.matrix
        labels = run.labels[:, 0]
        perm = np.array([2, 3, 0, 1])
        permuted = perm[labels]
        inertia = 0.0
        for j in range(4):
            pts = X[permuted == j]
            inertia += ((pts - pts.mean(axis=0)) ** 2).sum()
        assert inertia == pytest.approx(run.inertia, rel=1e-12)

    def test_inertia_increase_raises_internal_error(self, monkeypatch):
        rng = np.random.default_rng(4)
        feats = FeatureMatrix.from_matrix(rng.normal(size=(30, 2)))
        true_centroids = kmeans._centroids
        monkeypatch.setattr(
            kmeans, "_centroids", lambda X, labels, k: true_centroids(X, labels, k) + 100.0
        )
        with pytest.raises(InternalError, match="inertia increased"):
            run_kmeans(feats, 3, seed=0)

    def test_masked_cells_unlabeled(self):
        mask = np.array([[True, False], [True, True]])
        f1 = make_field([[0.0, 0.0], [5.0, 5.1]], mask=mask, units=CELSIUS)
        feats = build_features(stack_from_fields([f1]))
        run = run_kmeans(feats, 2, seed=0)
        assert run.labels[0, 1] == -1
        assert (run.labels >= 0).sum() == 3


class TestSweep:
    def test_sweep_emits_one_map_per_k(self):
        rng = np.random.default_rng(1)
        feats = FeatureMatrix.from_matrix(rng.normal(size=(40, 4)))
        maps = sweep_k(feats, [8, 10, 12], seed=0, restarts=2)
        assert [m.k for m in maps] == [8, 10, 12]

    def test_k1_inertia_is_total_variance_times_count(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(25, 3))
        feats = FeatureMatrix.from_matrix(X)
        (only,) = sweep_k(feats, [1], seed=0, restarts=1)
        expected = X.var(axis=0).sum() * X.shape[0]
        assert only.inertia == pytest.approx(expected, rel=1e-12)

    def test_more_restarts_never_hurt(self):
        rng = np.random.default_rng(3)
        feats = FeatureMatrix.from_matrix(rng.normal(size=(60, 2)))
        (one,) = sweep_k(feats, [5], seed=7, restarts=1)
        (five,) = sweep_k(feats, [5], seed=7, restarts=5)
        assert five.inertia <= one.inertia

    def test_empty_ks_rejected(self):
        feats = FeatureMatrix.from_matrix(np.arange(4.0))
        with pytest.raises(ParameterError):
            sweep_k(feats, [])
        with pytest.raises(ParameterError):
            sweep_k(feats, None)

    @pytest.mark.parametrize(
        "ks, kwargs, name",
        [
            ([2.7], {}, "ks entry"),
            ([2, 3.0], {}, "ks entry"),
            ([2], {"restarts": 1.5}, "restarts"),
            ([2], {"seed": 0.5}, "seed"),
        ],
    )
    def test_non_integer_parameters_rejected(self, ks, kwargs, name):
        feats = FeatureMatrix.from_matrix(np.arange(6.0))
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            sweep_k(feats, ks, **kwargs)

    def test_numpy_ks_accepted(self):
        feats = FeatureMatrix.from_matrix(np.arange(6.0))
        maps = sweep_k(feats, np.array([3, 2]), seed=np.int64(1), restarts=np.int16(2))
        plain = sweep_k(feats, [3, 2], seed=1, restarts=2)
        assert [(m.k, m.seed, m.inertia) for m in maps] == [
            (m.k, m.seed, m.inertia) for m in plain
        ]

    def test_repeated_k_rejected(self):
        feats = FeatureMatrix.from_matrix(np.arange(6.0))
        with pytest.raises(ParameterError, match="k = 2 more than once"):
            sweep_k(feats, [3, 2, 2], restarts=1)


def sweep_outcome(*args, **kwargs):
    """sweep_k's maps, or its error as (type, message); no worker is left."""
    try:
        outcome = sweep_k(*args, **kwargs)
    except Exception as exc:
        outcome = (type(exc), str(exc))
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return outcome


@pytest.fixture
def pooled_and_serial(monkeypatch):
    """Outcomes of one sweep_k call on two forked workers, whatever the input
    size and CPU count (a Lloyd run in the calling process fails), and on
    one CPU."""
    caller, run_kmeans = os.getpid(), kmeans.run_kmeans

    def run_in_a_worker(*args, **kwargs):
        assert os.getpid() != caller, "a pooled sweep ran Lloyd in the calling process"
        return run_kmeans(*args, **kwargs)

    def outcomes(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(kmeans, "_POOL_MIN_WORK", 0)
            m.setattr(kmeans, "_usable_cpus", lambda: 2)
            m.setattr(kmeans, "run_kmeans", run_in_a_worker)
            pooled = sweep_outcome(*args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(kmeans, "_usable_cpus", lambda: 1)
            serial = sweep_outcome(*args, **kwargs)
        return pooled, serial

    return outcomes


class TestPooledSweep:
    FEATURES = FeatureMatrix.from_matrix(np.random.default_rng(11).normal(size=(90, 6)))

    def test_maps_match_the_serial_loop_bit_for_bit(self, pooled_and_serial):
        maps, serial = pooled_and_serial(self.FEATURES, [2, 5, 3], seed=4, restarts=5)
        assert [m.k for m in maps] == [2, 3, 5]
        for got, want in zip(maps, serial, strict=True):
            assert got.labels.tobytes() == want.labels.tobytes()
            assert got.centroids.tobytes() == want.centroids.tobytes()
            assert (got.geometry, got.k, got.inertia, got.iterations, got.seed,
                    got.inertia_history, got.converged_by) == (
                want.geometry, want.k, want.inertia, want.iterations, want.seed,
                want.inertia_history, want.converged_by)
            assert not got.labels.flags.writeable
            assert not got.centroids.flags.writeable

    def test_k_above_the_cell_count_raises_the_serial_error(self, pooled_and_serial):
        n = self.FEATURES.matrix.shape[0]
        pooled, serial = pooled_and_serial(self.FEATURES, [2, n + 1], restarts=3)
        assert pooled == serial == (ParameterError, f"k must be in [1, {n}], got {n + 1}")

    def test_a_process_with_threads_sweeps_serially(self, monkeypatch):
        monkeypatch.setattr(kmeans, "_POOL_MIN_WORK", 0)
        monkeypatch.setattr(kmeans, "_usable_cpus", lambda: 2)
        pids, run_kmeans = [], kmeans.run_kmeans
        monkeypatch.setattr(
            kmeans,
            "run_kmeans",
            lambda *args, **kwargs: pids.append(os.getpid()) or run_kmeans(*args, **kwargs),
        )
        done = threading.Event()
        waiting = threading.Thread(target=done.wait, args=(60,))
        waiting.start()
        try:
            sweep_outcome(self.FEATURES, [2, 3], restarts=2)
        finally:
            done.set()
            waiting.join(60)
        assert not waiting.is_alive()
        assert pids == [os.getpid()] * 4

    def test_internal_error_in_a_worker_comes_through(self, monkeypatch, pooled_and_serial):
        true_centroids = kmeans._centroids
        monkeypatch.setattr(
            kmeans, "_centroids", lambda X, labels, k: true_centroids(X, labels, k) + 100.0
        )
        pooled, serial = pooled_and_serial(self.FEATURES, [3, 4], restarts=2)
        assert pooled == serial
        assert pooled[0] is InternalError and "inertia increased" in pooled[1]


def test_pooled_sweep_after_a_threaded_matrix_product():
    # A BLAS thread pool started before forked_map forks must neither hang
    # the workers' matrix products nor change a bit of the maps.
    code = (
        "import os\n"
        "import numpy as np\n"
        "from gridclust import kmeans\n"
        "a = np.random.default_rng(0).normal(size=(800, 800))\n"
        "a @ a\n"
        "caller, run_kmeans = os.getpid(), kmeans.run_kmeans\n"
        "def in_a_worker(*args, **kwargs):\n"
        "    assert os.getpid() != caller\n"
        "    return run_kmeans(*args, **kwargs)\n"
        "X = np.random.default_rng(1).normal(size=(300, 12))\n"
        "features = kmeans.FeatureMatrix.from_matrix(X)\n"
        "kmeans._POOL_MIN_WORK, kmeans._usable_cpus = 0, lambda: 2\n"
        "kmeans.run_kmeans = in_a_worker\n"
        "pooled = kmeans.sweep_k(features, [2, 5, 8], seed=3, restarts=4)\n"
        "kmeans._usable_cpus, kmeans.run_kmeans = (lambda: 1), run_kmeans\n"
        "serial = kmeans.sweep_k(features, [2, 5, 8], seed=3, restarts=4)\n"
        "def bits(m):\n"
        "    return (m.labels.tobytes(), m.centroids.tobytes(), m.inertia,\n"
        "            m.inertia_history, m.iterations, m.seed, m.converged_by)\n"
        "print([bits(m) for m in pooled] == [bits(m) for m in serial])\n"
    )
    blas_threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    proc = fresh_python(code, unset=blas_threads, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_single_cpu_sweep_loads_no_process_pool():
    proc = fresh_python(
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "import numpy as np\n"
        "from gridclust.kmeans import _POOL_MIN_WORK, FeatureMatrix, sweep_k\n"
        "X = np.random.default_rng(0).normal(size=(_POOL_MIN_WORK // 4, 2))\n"
        "sweep_k(FeatureMatrix.from_matrix(X), [2, 3], restarts=2)\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
