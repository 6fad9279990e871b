import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridclust.analysis import (
    adjusted_rand,
    cluster_summary,
    compare_maps,
    contingency,
    matched_jaccard,
)
from gridclust.errors import DomainError, ShapeMismatchError
from gridclust.gridcore import ZoneMap
from gridclust.ingest import AnnualMeanStack

from conftest import make_field, planar_geom


def zone_of(labels):
    labels = np.asarray(labels)
    return ZoneMap(planar_geom(*labels.shape), labels, {})


def pairwise_ari(labels_a, labels_b):
    """Independent ARI oracle: count agreeing/disagreeing pairs directly."""
    n = len(labels_a)
    together_both = together_a_only = together_b_only = 0
    for i, j in itertools.combinations(range(n), 2):
        same_a = labels_a[i] == labels_a[j]
        same_b = labels_b[i] == labels_b[j]
        together_both += same_a and same_b
        together_a_only += same_a
        together_b_only += same_b
    pairs = n * (n - 1) // 2
    expected = together_a_only * together_b_only / pairs
    maximum = 0.5 * (together_a_only + together_b_only)
    if maximum == expected:
        return 0.0
    return (together_both - expected) / (maximum - expected)


class TestContingency:
    def test_identical_maps_are_diagonal(self):
        m = zone_of([[0, 0, 1, 1, 2, 2]])
        t = contingency(m, m)
        assert t.labels_a == t.labels_b == (0, 1, 2)
        assert np.array_equal(t.counts, np.diag([2, 2, 2]))
        assert t.total == 6

    def test_permuted_labels_permute_the_diagonal(self):
        a = zone_of([[0, 0, 1, 1]])
        b = zone_of([[1, 1, 0, 0]])
        t = contingency(a, b)
        assert t.counts.tolist() == [[0, 2], [2, 0]]

    def test_partial_overlap_counts_coverage(self):
        a = zone_of([[0, 0, -1]])
        b = zone_of([[-1, 1, 1]])
        t = contingency(a, b)
        assert t.total == 1
        assert t.only_a == 1 and t.only_b == 1

    def test_disjoint_masks_warn_with_zero_total(self):
        a = zone_of([[0, -1]])
        b = zone_of([[-1, 0]])
        with pytest.warns(UserWarning):
            t = contingency(a, b)
        assert t.total == 0

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            contingency(zone_of([[0]]), zone_of([[0, 1]]))


class TestAdjustedRand:
    def test_label_permutation_scores_one(self):
        t = contingency(zone_of([[1, 1, 2, 2]]), zone_of([[2, 2, 1, 1]]))
        assert adjusted_rand(t) == 1.0

    def test_derived_four_point_case_is_zero(self):
        t = contingency(zone_of([[1, 1, 2, 2]]), zone_of([[1, 1, 1, 2]]))
        assert adjusted_rand(t) == pytest.approx(0.0, abs=1e-12)

    def test_identity_scores_one(self):
        m = zone_of([[0, 1, 2, 0, 1, 2]])
        assert adjusted_rand(contingency(m, m)) == 1.0

    def test_matches_pairwise_oracle_on_random_labelings(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            a = rng.integers(0, 4, n)
            b = rng.integers(0, 3, n)
            t = contingency(zone_of([a]), zone_of([b]))
            assert adjusted_rand(t) == pytest.approx(
                pairwise_ari(a.tolist(), b.tolist()), abs=1e-12
            )

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = zone_of([rng.integers(0, 4, 50)])
        b = zone_of([rng.integers(0, 5, 50)])
        assert adjusted_rand(contingency(a, b)) == pytest.approx(
            adjusted_rand(contingency(b, a)), abs=1e-12
        )

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 4, 60)
        b = rng.integers(0, 4, 60)
        perm = np.array([3, 0, 2, 1])
        t1 = contingency(zone_of([a]), zone_of([b]))
        t2 = contingency(zone_of([perm[a]]), zone_of([b]))
        assert adjusted_rand(t1) == pytest.approx(adjusted_rand(t2), abs=1e-12)

    def test_independent_maps_score_near_zero(self):
        rng = np.random.default_rng(1234)
        a = rng.integers(0, 4, 1000)
        b = rng.integers(0, 4, 1000)
        ari = adjusted_rand(contingency(zone_of([a]), zone_of([b])))
        assert abs(ari) <= 0.05

    def test_too_few_cells_rejected(self):
        with pytest.raises(DomainError):
            adjusted_rand(contingency(zone_of([[0, -1]]), zone_of([[0, -1]])))


class TestMatchedJaccard:
    def test_identical_maps_score_one(self):
        m = zone_of([[0, 0, 1, 1, 2]])
        matches = matched_jaccard(contingency(m, m))
        assert [(a, b) for a, b, _ in matches] == [(0, 0), (1, 1), (2, 2)]
        assert all(s == 1.0 for _, _, s in matches)

    def test_even_split_scores_half(self):
        a = zone_of([[0, 0, 0, 0, 1, 1, 1, 1]])
        b = zone_of([[0, 0, 2, 2, 1, 1, 3, 3]])
        matches = matched_jaccard(contingency(a, b))
        matched = [m for m in matches if m[0] is not None and m[1] is not None]
        assert all(s == pytest.approx(0.5) for _, _, s in matched)

    def test_cardinality_gap_reports_unmatched(self):
        a = zone_of([[0, 0, 1, 1, 2, 2]])
        b = zone_of([[0, 0, 0, 1, 1, 1]])
        matches = matched_jaccard(contingency(a, b))
        unmatched = [m for m in matches if m[1] is None]
        assert len(unmatched) == 1
        assert unmatched[0][2] == 0.0

    def test_total_invariant_under_relabeling(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 4, 80)
        b = rng.integers(0, 4, 80)
        perm = np.array([2, 3, 1, 0])
        t1 = matched_jaccard(contingency(zone_of([a]), zone_of([b])))
        t2 = matched_jaccard(contingency(zone_of([perm[a]]), zone_of([b])))
        assert sum(s for _, _, s in t1) == pytest.approx(sum(s for _, _, s in t2), abs=1e-12)


@st.composite
def labelings_and_permutations(draw):
    """Two label rows over the same cells (-1 = unlabeled), plus a
    relabelling permutation for each."""
    n = draw(st.integers(2, 40))
    row = st.lists(st.integers(-1, 5), min_size=n, max_size=n)
    a, b = draw(row), draw(row)
    perm_a, perm_b = draw(st.permutations(range(6))), draw(st.permutations(range(6)))
    return a, b, perm_a, perm_b


@given(labelings_and_permutations())
def test_ari_and_matched_jaccard_ignore_label_permutations(case):
    a, b, perm_a, perm_b = case
    relabel = lambda row, perm: [perm[v] if v >= 0 else -1 for v in row]  # noqa: E731
    t1 = contingency(zone_of([a]), zone_of([b]))
    t2 = contingency(zone_of([relabel(a, perm_a)]), zone_of([relabel(b, perm_b)]))
    if t1.total >= 2:
        assert adjusted_rand(t1) == adjusted_rand(t2)
    m1, m2 = matched_jaccard(t1), matched_jaccard(t2)
    assert sum(s for _, _, s in m1) == pytest.approx(sum(s for _, _, s in m2), abs=1e-12)
    unmatched = lambda m: sorted((x is None, y is None) for x, y, _ in m)  # noqa: E731
    assert unmatched(m1) == unmatched(m2)


class TestClusterSummary:
    def geometry_setup(self):
        zm = zone_of([[0, 0, 1], [0, 1, 1]])
        elev = make_field([[100.0, 300.0, 2500.0], [200.0, 2100.0, 2600.0]], units="meters")
        slope = make_field([[1.0, 2.0, 10.0], [3.0, 11.0, 12.0]], units="degrees_slope")
        f1 = make_field([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], units="celsius")
        f2 = make_field([[2.0, 3.0, 4.0], [5.0, 6.0, 7.0]], units="celsius")
        stack = AnnualMeanStack(
            zm.geometry, "celsius", (2000, 2001), (f1, f2), np.ones((2, 3), dtype=bool)
        )
        return zm, elev, slope, stack

    def test_mean_elevation_of_members(self):
        zm = zone_of([[0, 0]])
        elev = make_field([[100.0, 300.0]], units="meters")
        report = cluster_summary(zm, elevation=elev)
        assert report.clusters[0].mean_elevation == pytest.approx(200.0)

    def test_full_summary(self):
        zm, elev, slope, stack = self.geometry_setup()
        report = cluster_summary(zm, elev, slope, stack)
        by_label = {s.label: s for s in report.clusters}
        assert by_label[0].cell_count == 3
        assert by_label[0].mean_elevation == pytest.approx(200.0)
        assert by_label[1].mean_elevation == pytest.approx(2400.0)
        assert by_label[0].value_min == 1.0
        assert by_label[0].value_max == 5.0
        assert by_label[1].value_max == 7.0
        assert report.fraction_below_low_band == pytest.approx(0.5)
        assert report.fraction_above_high_band == pytest.approx(0.5)

    def test_bands_are_disjoint(self):
        zm, elev, slope, stack = self.geometry_setup()
        report = cluster_summary(zm, elev, slope, stack)
        below = sum(
            1 for s in report.clusters
            if s.mean_elevation is not None and s.mean_elevation < 1500
        )
        above = sum(
            1 for s in report.clusters
            if s.mean_elevation is not None and s.mean_elevation > 2000
        )
        assert below + above <= len(report.clusters)

    def test_counts_sum_to_labeled_cells(self):
        zm, elev, slope, stack = self.geometry_setup()
        report = cluster_summary(zm, elev, slope, stack)
        assert sum(s.cell_count for s in report.clusters) == (zm.labels >= 0).sum()

    def test_masked_terrain_omits_statistics(self):
        zm = zone_of([[0, 1]])
        mask = np.array([[False, True]])
        elev = make_field([[0.0, 500.0]], mask=mask, units="meters")
        report = cluster_summary(zm, elevation=elev)
        by_label = {s.label: s for s in report.clusters}
        assert by_label[0].mean_elevation is None
        assert by_label[1].mean_elevation == 500.0

    def test_single_cell_cluster(self):
        zm = zone_of([[0]])
        f = make_field([[3.5]], units="celsius")
        stack = AnnualMeanStack(zm.geometry, "celsius", (2000,), (f,), np.ones((1, 1), bool))
        report = cluster_summary(zm, stack=stack)
        s = report.clusters[0]
        assert (s.value_min, s.value_mean, s.value_max) == (3.5, 3.5, 3.5)

    def test_geometry_mismatch_rejected(self):
        zm = zone_of([[0, 1]])
        elev = make_field([[1.0]], units="meters")
        with pytest.raises(ShapeMismatchError):
            cluster_summary(zm, elevation=elev)


class TestCompareMaps:
    def test_report_bundles_everything(self):
        m = zone_of([[0, 0, 1, 1]])
        report = compare_maps(m, m)
        assert report.ari == 1.0
        assert len(report.matches) == 2
