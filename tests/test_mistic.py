import gc
import threading
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gridclust import mistic
from gridclust.errors import EmptyDomainError, ParameterError
from gridclust.gridcore import CELSIUS, CellIndex, ZoneMap, neighbors8
from gridclust.mistic import (
    Core,
    Foci,
    FocusFrequencyTable,
    FocusPoint,
    MisticParams,
    build_cores,
    classify_core,
    consensus_zone_map,
    detect_focus_points,
    mine_frequent_foci,
    run_mistic,
    watershed_zones,
)
from gridclust.synth import make_planted_stack

from conftest import brute_force_foci, make_field, planar_geom


@st.composite
def tie_heavy_fields(draw):
    """1x1 to 9x9 fields of four values, -0.0 beside 0.0, NaN under a random
    mask that leaves at least one cell."""
    shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    codes = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 3)))
    mask = draw(hnp.arrays(np.bool_, shape, elements=st.sampled_from([True, True, True, False])))
    assume(mask.any())
    values = np.array([-1.0, -0.0, 0.0, 1.0])[codes]
    return make_field(np.where(mask, values, np.nan), mask=mask)


def two_bump_field():
    """Asymmetric pair of Gaussian bumps (no exact value ties)."""
    rr, cc = np.indices((20, 24), dtype=float)
    bump1 = 10.0 * np.exp(-(((rr - 6) ** 2) + (cc - 6) ** 2) / (2 * 9.0))
    bump2 = 7.0 * np.exp(-(((rr - 13) ** 2) + (cc - 17) ** 2) / (2 * 16.0))
    return make_field(bump1 + bump2)


class TestDetectFocusPoints:
    def test_unique_strict_maximum(self):
        values = np.ones((3, 3))
        values[1, 1] = 5.0
        foci = detect_focus_points(make_field(values), "maxima")
        assert [tuple(f.cell) for f in foci] == [(1, 1)]
        assert foci[0].value == 5.0

    def test_constant_field_has_no_focus(self):
        foci = detect_focus_points(make_field(np.full((4, 4), 3.0)), "maxima")
        assert foci == []

    def test_two_strict_maxima_in_a_row(self):
        foci = detect_focus_points(make_field([[3.0, 1.0, 3.0]]), "maxima")
        assert [tuple(f.cell) for f in foci] == [(0, 0), (0, 2)]

    def test_plateau_emits_lexicographic_representative(self):
        values = np.zeros((3, 4))
        values[1, 1] = values[1, 2] = 4.0
        foci = detect_focus_points(make_field(values), "maxima")
        assert [tuple(f.cell) for f in foci] == [(1, 1)]

    def test_plateau_with_higher_boundary_rejected(self):
        values = np.zeros((3, 4))
        values[1, 1] = values[1, 2] = 4.0
        values[1, 3] = 9.0
        foci = detect_focus_points(make_field(values), "maxima")
        assert [tuple(f.cell) for f in foci] == [(1, 3)]

    def test_minima_orientation_mirrors(self):
        values = np.zeros((3, 3))
        values[1, 1] = -2.0
        foci = detect_focus_points(make_field(values), "minima")
        assert [tuple(f.cell) for f in foci] == [(1, 1)]

    def test_fully_masked_rejected(self):
        f = make_field(np.zeros((2, 2)), mask=np.zeros((2, 2), dtype=bool))
        with pytest.raises(EmptyDomainError):
            detect_focus_points(f, "maxima")

    @given(
        field=tie_heavy_fields(),
        orientation=st.sampled_from(["maxima", "minima"]),
        year=st.integers(1900, 2100),
    )
    def test_matches_brute_force_oracle_on_random_fields(self, field, orientation, year):
        foci = detect_focus_points(field, orientation, year=year)
        assert [tuple(fp.cell) for fp in foci] == brute_force_foci(field, orientation)
        for fp in foci:
            assert fp.year == year
            # repr tells -0.0 from 0.0: the value is the one at the focus cell.
            assert repr(fp.value) == repr(float(field.values[fp.cell]))


class TestFoci:
    def test_reads_like_a_list_of_focus_points(self):
        field = two_bump_field()
        foci = detect_focus_points(field, "maxima", year=1999)
        first = FocusPoint(CellIndex(6, 6), 1999, float(field.values[6, 6]))
        second = FocusPoint(CellIndex(13, 17), 1999, float(field.values[13, 17]))
        assert isinstance(foci, Foci) and foci and len(foci) == 2
        assert list(foci) == [first, second] and foci[0] == first and foci[-1] == second
        assert foci == [first, second] and foci == (first, second) and foci != [first]
        assert isinstance(foci[1:], Foci) and foci[1:] == [second] and foci[::-1] == [second, first]
        assert second in foci and foci.index(second) == 1 and foci.count(first) == 1
        assert {type(c) for fp in foci for c in fp.cell} == {int}
        assert {(type(fp.year), type(fp.value)) for fp in foci} == {(int, float)}
        assert repr(foci) == f"Foci({[first, second]!r})"
        with pytest.raises(IndexError):
            foci[2]
        with pytest.raises(ValueError, match="read-only"):
            foci.rows[0] = 0

    def test_no_focus_is_an_empty_sequence(self):
        foci = detect_focus_points(make_field(np.full((3, 3), 1.0)), "maxima")
        assert not foci and len(foci) == 0 and list(foci) == [] and foci == ()
        assert Foci([], [], []) == [] and Foci([], [], []).rows.dtype == np.int64

    @pytest.mark.parametrize(
        "rows, cols, values",
        [
            ([1.0], [2], [0.0]),
            ([1], np.array([2.5]), [0.0]),
            (np.array([True]), [2], [0.0]),
            (["1"], [2], [0.0]),
            ([1], [2], ["0.0"]),
            (np.array([2**63], dtype=np.uint64), [2], [0.0]),
            ([[1]], [[2]], [[0.0]]),
            ([1, 2], [2], [0.0]),
            ([1], [2], [0.0, 1.0]),
        ],
    )
    def test_refuses_arrays_that_are_no_focus_cells(self, rows, cols, values):
        with pytest.raises(ParameterError, match=r"^(focus rows|focus cols|focus values|\d focus rows)"):
            Foci(rows, cols, values)

    def test_keeps_frozen_copies_of_its_arrays(self):
        field = two_bump_field()
        rows, cols = np.array([6, 13], dtype=np.int64), np.array([6, 17], dtype=np.uint16)
        values = field.values[rows, cols].copy()
        foci = Foci(rows, cols, values, 1999)
        assert foci == detect_focus_points(field, "maxima", year=1999)
        zones = watershed_zones(field, foci, "maxima")
        rows[0], cols[0], values[0] = 0, 0, -1.0
        assert foci[0] == FocusPoint(CellIndex(6, 6), 1999, float(field.values[6, 6]))
        assert dict(zones.anchors) == {0: CellIndex(6, 6), 1: CellIndex(13, 17)}
        assert (foci.rows.dtype, foci.cols.dtype, foci.values.dtype) == (np.int64, np.int64, np.float64)
        for arr in (foci.rows, foci.cols, foci.values, zones.anchors.rows, zones.anchors.cols):
            assert not arr.flags.writeable


class TestWatershed:
    def test_single_focus_floods_connected_domain(self):
        f = two_bump_field()
        foci = [FocusPoint(CellIndex(6, 6), 0, float(f.values[6, 6]))]
        zones = watershed_zones(f, foci, "maxima")
        assert (zones.labels == 0).all()

    def test_hand_simulated_row_case(self):
        f = make_field([[3.0, 1.0, 3.0]])
        foci = [
            FocusPoint(CellIndex(0, 0), 0, 3.0),
            FocusPoint(CellIndex(0, 2), 0, 3.0),
        ]
        zones = watershed_zones(f, foci, "maxima")
        # middle cell joins the first-seeded tie-break winner at col 0
        assert zones.labels.tolist() == [[0, 0, 1]]

    def test_two_bump_field_zone_count_equals_focus_count(self):
        f = two_bump_field()
        foci = detect_focus_points(f, "maxima")
        assert len(foci) == 2
        zones = watershed_zones(f, foci, "maxima")
        assert sorted(np.unique(zones.labels).tolist()) == [0, 1]
        assert (zones.labels >= 0).all()
        for label, anchor in zones.anchors.items():
            assert zones.labels[anchor.row, anchor.col] == label

    def test_zones_are_8_connected(self):
        f = two_bump_field()
        foci = detect_focus_points(f, "maxima")
        zones = watershed_zones(f, foci, "maxima")
        for label in zones.present_labels():
            cells = set(map(tuple, np.argwhere(zones.labels == label).tolist()))
            seenq = [next(iter(cells))]
            reached = {seenq[0]}
            while seenq:
                cur = seenq.pop()
                for nb in neighbors8(f.geometry, None, cur):
                    if tuple(nb) in cells and tuple(nb) not in reached:
                        reached.add(tuple(nb))
                        seenq.append(tuple(nb))
            assert reached == cells

    def test_unreachable_cells_stay_unlabeled(self):
        values = np.zeros((3, 3))
        values[0, 0] = 5.0
        mask = np.ones((3, 3), dtype=bool)
        mask[:, 1] = False  # wall splits the grid
        f = make_field(values, mask=mask)
        foci = [FocusPoint(CellIndex(0, 0), 0, 5.0)]
        zones = watershed_zones(f, foci, "maxima")
        assert zones.labels[0, 0] == 0
        assert zones.labels[1, 0] == 0
        assert (zones.labels[:, 2] == -1).all()

    def test_parameter_errors(self):
        f = make_field(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            watershed_zones(f, [], "maxima")
        with pytest.raises(ParameterError):
            watershed_zones(f, [FocusPoint(CellIndex(5, 5), 0, 0.0)], "maxima")
        dup = [FocusPoint(CellIndex(0, 0), 0, 0.0), FocusPoint(CellIndex(0, 0), 0, 0.0)]
        with pytest.raises(ParameterError):
            watershed_zones(f, dup, "maxima")

    def test_monotone_transform_leaves_zones_identical(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            values = rng.random((9, 9)) * 4 - 2
            f = make_field(values)
            foci = detect_focus_points(f, "maxima")
            if not foci:
                continue
            zones = watershed_zones(f, foci, "maxima")
            g = make_field(values**3 + 7.0)
            foci_g = detect_focus_points(g, "maxima")
            assert [tuple(x.cell) for x in foci_g] == [tuple(x.cell) for x in foci]
            zones_g = watershed_zones(g, foci_g, "maxima")
            assert np.array_equal(zones.labels, zones_g.labels)


class TestMining:
    def test_paper_threshold_boundary(self):
        x, y = CellIndex(2, 2), CellIndex(5, 5)
        yearly = []
        for i in range(31):
            foci = []
            if i < 12:
                foci.append(FocusPoint(x, i, 1.0))
            if i < 11:
                foci.append(FocusPoint(y, i, 1.0))
            yearly.append(foci)
        table = mine_frequent_foci(yearly, 31, 12)
        assert table.is_frequent(x)
        assert not table.is_frequent(y)
        assert table.frequency(x) == pytest.approx(12 / 31, abs=1e-12)
        assert Fraction(table.counts[x], table.total_years) >= Fraction(38, 100)
        assert Fraction(table.counts[y], table.total_years) < Fraction(38, 100)

    def test_full_recurrence(self):
        cell = CellIndex(0, 0)
        yearly = [[FocusPoint(cell, i, 0.0)] for i in range(5)]
        table = mine_frequent_foci(yearly, 5, 1)
        assert table.frequency(cell) == 1.0

    @pytest.mark.parametrize(
        "total_years, min_years, named",
        [(5.0, 1, "total_years"), (5, 2.5, "min_years"), ("5", 1, "total_years"),
         (5, None, "min_years")],
    )
    def test_non_integer_table_parameters_rejected(self, total_years, min_years, named):
        with pytest.raises(ParameterError, match=f"^{named} must be an integer"):
            FocusFrequencyTable({CellIndex(0, 0): 1}, total_years, min_years)

    def test_numpy_integer_table_parameters_become_ints(self):
        table = FocusFrequencyTable({CellIndex(0, 0): 1}, np.int64(5), np.uint8(1))
        assert (table.total_years, table.min_years) == (5, 1)
        assert type(table.total_years) is int and type(table.min_years) is int

    def test_year_order_invariance(self):
        rng = np.random.default_rng(13)
        yearly = []
        for i in range(8):
            cells = {CellIndex(int(r), int(c)) for r, c in rng.integers(0, 4, (3, 2))}
            yearly.append([FocusPoint(c, i, 0.0) for c in sorted(cells)])
        t1 = mine_frequent_foci(yearly, 8, 2)
        t2 = mine_frequent_foci(yearly[::-1], 8, 2)
        assert t1.counts == t2.counts


def table_from_counts(counts, total_years, min_years=1):
    return FocusFrequencyTable(
        {CellIndex(*c): n for c, n in counts.items()}, total_years, min_years
    )


class TestCores:
    def test_cc_connected_components(self):
        table = table_from_counts({(0, 0): 3, (0, 1): 2, (5, 5): 1}, 10)
        cores = build_cores(table, "cc")
        members = sorted(tuple(map(tuple, c.member_cells)) for c in cores)
        assert members == [((0, 0), (0, 1)), ((5, 5),)]

    def test_cr_radius_two_merges(self):
        table = table_from_counts({(0, 0): 1, (0, 2): 1}, 10)
        cores = build_cores(table, "cr", radius=2)
        assert len(cores) == 1

    def test_cr_radius_one_keeps_apart(self):
        table = table_from_counts({(0, 0): 1, (0, 2): 1}, 10)
        cores = build_cores(table, "cr", radius=1)
        assert len(cores) == 2

    def test_cr_radius_one_equals_cc_on_random_configs(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            cells = {
                (int(r), int(c)): int(n)
                for (r, c), n in zip(rng.integers(0, 12, (15, 2)), rng.integers(1, 9, 15))
            }
            table = table_from_counts(cells, 10)
            cc = build_cores(table, "cc")
            cr = build_cores(table, "cr", radius=1)
            assert [c.member_cells for c in cc] == [c.member_cells for c in cr]
            assert [c.member_counts for c in cc] == [c.member_counts for c in cr]

    def test_cc_cores_partition_the_focus_set(self):
        rng = np.random.default_rng(5)
        cells = {(int(r), int(c)): 1 for r, c in rng.integers(0, 10, (12, 2))}
        table = table_from_counts(cells, 4)
        cores = build_cores(table, "cc")
        all_members = [tuple(c) for core in cores for c in core.member_cells]
        assert sorted(all_members) == sorted(cells)
        assert len(all_members) == len(set(all_members))

    def test_ids_ordered_by_dominance(self):
        table = table_from_counts({(9, 9): 10, (0, 0): 3}, 10)
        cores = build_cores(table, "cc")
        assert tuple(cores[0].member_cells[0]) == (9, 9)
        assert cores[0].id == 0

    def test_extent_unions_zones_across_years(self):
        values = np.array([[5.0, 1.0, 4.0]])
        f = make_field(values)
        foci = detect_focus_points(f, "maxima")
        zones = watershed_zones(f, foci, "maxima")
        table = mine_frequent_foci([foci], 1, 1)
        cores = build_cores(table, "cc", yearly_zones=[zones])
        by_anchor = {tuple(c.member_cells[0]): c for c in cores}
        assert set(map(tuple, by_anchor[(0, 0)].extent)) == {(0, 0), (0, 1)}
        assert set(map(tuple, by_anchor[(0, 2)].extent)) == {(0, 2)}

    def test_empty_table_gives_empty_list(self):
        table = FocusFrequencyTable({}, 5, 1)
        assert build_cores(table, "cc") == []

    def test_cr_radius_validation(self):
        table = table_from_counts({(0, 0): 1}, 5)
        with pytest.raises(ParameterError):
            build_cores(table, "cr", radius=0)

    @pytest.mark.parametrize("mode", ["cc", "cr"])
    @pytest.mark.parametrize("radius", [1.5, 2.0, float("inf"), "2", None])
    def test_non_integer_radius_rejected(self, mode, radius):
        table = table_from_counts({(0, 0): 1}, 5)
        with pytest.raises(ParameterError, match="^radius must be an integer"):
            build_cores(table, mode, radius=radius)


class TestClassify:
    def make_core(self, counts, total):
        cells = tuple(CellIndex(0, i) for i in range(len(counts)))
        return (
            Core(0, cells, tuple(counts), total, "cc", None, None, frozenset(cells)),
            table_from_counts({(0, i): n for i, n in enumerate(counts)}, total),
        )

    def test_chd(self):
        core, table = self.make_core([28, 6], 31)  # 0.90, 0.19
        assert classify_core(core, table) == "CHD"

    def test_cld(self):
        core, table = self.make_core([14], 31)  # 0.45
        assert classify_core(core, table) == "CLD"

    def test_cnd(self):
        core, table = self.make_core([3, 9], 31)  # 0.10, 0.29
        assert classify_core(core, table) == "CND"

    def test_threshold_ordering_enforced(self):
        core, table = self.make_core([5], 31)
        with pytest.raises(ParameterError):
            classify_core(core, table, theta_high=0.3, theta_dom=0.5)

    def test_core_without_members_is_refused(self):
        _, table = self.make_core([5], 31)
        core = Core(7, (), (), 31, "cc", None, None, frozenset())
        with pytest.raises(ParameterError, match=r"^core 7 has no members$"):
            classify_core(core, table)

    def test_member_missing_from_the_table_is_refused(self):
        core, table = self.make_core([5, 6], 31)
        core = Core(3, (CellIndex(0, 1), CellIndex(4, 4)), (6, 1), 31, "cc", None, None,
                    frozenset())
        named = r"^core 3 member CellIndex\(row=4, col=4\) is not in the table$"
        with pytest.raises(ParameterError, match=named):
            classify_core(core, table)


class TestConsensus:
    def zone(self, labels, anchors):
        labels = np.asarray(labels)
        return ZoneMap(planar_geom(*labels.shape), labels, anchors)

    def cores_two(self):
        return [
            Core(0, (CellIndex(0, 0),), (3,), 3, "cc", None, None, frozenset({CellIndex(0, 0)})),
            Core(1, (CellIndex(0, 2),), (2,), 3, "cc", None, None, frozenset({CellIndex(0, 2)})),
        ]

    def test_majority_wins(self):
        cores = self.cores_two()
        y1 = self.zone([[0, 0, 0]], {0: CellIndex(0, 0)})
        y2 = self.zone([[0, 0, 0]], {0: CellIndex(0, 0)})
        y3 = self.zone([[0, 0, 0]], {0: CellIndex(0, 2)})  # whole year is core 1
        cons = consensus_zone_map([y1, y2, y3], cores)
        assert cons.labels.tolist() == [[0, 0, 0]]

    def test_tie_goes_to_smaller_core_id(self):
        cores = self.cores_two()
        y1 = self.zone([[1, 1, 1]], {1: CellIndex(0, 2)})  # core 1
        y2 = self.zone([[0, 0, 0]], {0: CellIndex(0, 0)})  # core 0
        cons = consensus_zone_map([y1, y2], cores)
        assert cons.labels.tolist() == [[0, 0, 0]]

    def test_identical_years_idempotent(self):
        cores = self.cores_two()
        y = self.zone([[0, 0, 1]], {0: CellIndex(0, 0), 1: CellIndex(0, 2)})
        cons = consensus_zone_map([y, y, y], cores)
        assert cons.labels.tolist() == [[0, 0, 1]]

    def test_unanchored_zone_maps_to_nearest_member(self):
        cores = self.cores_two()
        # anchor (0,1) belongs to no core; nearest members tie -> core 0
        y = self.zone([[-1, 0, -1]], {0: CellIndex(0, 1)})
        cons = consensus_zone_map([y], cores)
        assert cons.labels[0, 1] == 0

    @pytest.mark.parametrize(
        "labels, anchors",
        [([[0, 5, -1]], {0: CellIndex(0, 0)}), ([[2, 1, -1]], {2: CellIndex(0, 0)})],
        ids=["above-every-anchor", "below-an-anchor"],
    )
    def test_label_without_anchor_does_not_vote(self, labels, anchors):
        core = Core(0, (CellIndex(0, 0),), (1,), 1, "cc", None, None, frozenset())
        cons = consensus_zone_map([self.zone(labels, anchors)], [core])
        assert cons.labels.tolist() == [[0, -1, -1]]

    def test_negative_anchor_key_is_ignored(self):
        y = self.zone([[0, -1, -1]], {0: CellIndex(0, 0), -1: CellIndex(0, 2)})
        cons = consensus_zone_map([y], self.cores_two())
        assert cons.labels.tolist() == [[0, -1, -1]]
        table = table_from_counts({(0, 0): 1, (0, 2): 1}, 1)
        cores = build_cores(table, "cc", 1, [y])
        assert [sorted(core.extent) for core in cores] == [[(0, 0)], [(0, 2)]]

    def test_unlabeled_everywhere_stays_unlabeled(self):
        cores = self.cores_two()
        y = self.zone([[-1, -1, -1]], {})
        cons = consensus_zone_map([y], cores)
        assert (cons.labels == -1).all()

    def test_empty_inputs_rejected(self):
        with pytest.raises(ParameterError):
            consensus_zone_map([], self.cores_two())
        y = self.zone([[0]], {0: CellIndex(0, 0)})
        with pytest.raises(ParameterError):
            consensus_zone_map([y], [])

    def test_core_without_members_is_refused(self):
        cores = [*self.cores_two(), Core(5, (), (), 3, "cc", None, None, frozenset())]
        y = self.zone([[0, 0, 0]], {0: CellIndex(0, 0)})
        for listed in (cores, cores[2:]):
            with pytest.raises(ParameterError, match=r"^core 5 has no members$"):
                consensus_zone_map([y], listed)


class TestLargeLabels:
    """Zone labels near int32 max reach no table sized by the largest label."""

    BIG = 2**31 - 1

    def traced(self, fn):
        fn()  # a first call may import modules lazily; trace a later one
        tracemalloc.start()
        try:
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    def test_cores_and_consensus_stay_small(self):
        # Label BIG is anchored on (0, 1), a cell of no core: it adds to no
        # extent, and in the consensus (0, 1) lies 1 from a member of both
        # cores, so the tie goes to core 0.
        zm = ZoneMap(
            planar_geom(1, 3), [[0, self.BIG, -1]], {0: CellIndex(0, 0), self.BIG: CellIndex(0, 1)}
        )
        table = table_from_counts({(0, 0): 2, (0, 2): 1}, 2)
        cores, peak = self.traced(lambda: build_cores(table, "cc", 1, [zm]))
        assert peak < 2**20
        assert [sorted(core.extent) for core in cores] == [[(0, 0)], [(0, 2)]]
        consensus, peak = self.traced(lambda: consensus_zone_map([zm], cores))
        assert peak < 2**20
        assert consensus.labels.tolist() == [[0, 0, -1]]


class TestRunMistic:
    def test_planted_recovery_small(self):
        stack, truth = make_planted_stack(nrows=16, ncols=16, n_years=8, b_exact=4, seed=5)
        res = run_mistic(stack, MisticParams(orientation="maxima", min_years=4))
        frequent = [tuple(c) for c in res.table.frequent_cells]
        assert frequent == sorted([tuple(truth.peak_a), tuple(truth.peak_b)])
        res_strict = run_mistic(stack, MisticParams(orientation="maxima", min_years=5))
        assert [tuple(c) for c in res_strict.table.frequent_cells] == [tuple(truth.peak_a)]

    def test_single_year_single_peak(self):
        values = np.ones((4, 4))
        values[2, 2] = 9.0
        stack = _stack_of([make_field(values, units=CELSIUS)])
        res = run_mistic(stack, MisticParams(orientation="maxima", min_years=1))
        assert len(res.cores) == 1
        assert res.cores[0].dominance == "CHD"
        assert max(res.cores[0].member_counts) / res.cores[0].total_years == 1.0
        assert (res.consensus.labels == 0).all()

    def test_constant_stack_reports_no_foci(self):
        stack = _stack_of([make_field(np.full((4, 4), 2.0), units=CELSIUS)] * 3)
        res = run_mistic(stack, MisticParams(orientation="maxima", min_years=1))
        assert res.cores == ()
        assert (res.consensus.labels == -1).all()
        assert any("no focus points" in n for n in res.notices)

    def test_determinism_across_runs(self):
        stack, _ = make_planted_stack(nrows=12, ncols=12, n_years=5, b_exact=2, seed=9)
        params = MisticParams(orientation="maxima", min_years=2)
        a = run_mistic(stack, params)
        b = run_mistic(stack, params)
        assert np.array_equal(a.consensus.labels, b.consensus.labels)
        assert a.notices == b.notices

    def test_one_key_grid_per_field(self, monkeypatch):
        # Focus detection and the watershed share each year's neighbor relations.
        stack, _ = make_planted_stack(nrows=12, ncols=12, n_years=5, b_exact=2, seed=9)
        params = MisticParams(orientation="maxima", min_years=2)
        expected = run_mistic(stack, params)
        calls, relations = [], mistic._neighbor_relations
        monkeypatch.setattr(
            mistic, "_neighbor_relations", lambda *args: calls.append(1) or relations(*args)
        )
        shared = run_mistic(stack, params)
        assert len(calls) == stack.n_years
        assert shared.yearly_foci == expected.yearly_foci
        for year in stack.years:
            assert np.array_equal(shared.yearly_zones[year].labels,
                                  expected.yearly_zones[year].labels)
        # A caller's detection and watershed on one field share one grid too.
        field = stack.fields[0]
        watershed_zones(field, detect_focus_points(field, "maxima"), "maxima")
        assert len(calls) == stack.n_years + 1

    def test_key_grid_keeps_one_grid_per_thread(self):
        values = np.array([[0.0, 1.0, 0.0], [2.0, 3.0, 1.0]])
        field, twin = make_field(values), make_field(values)
        grid = mistic._key_grid(field, "maxima")
        assert mistic._key_grid(field, "maxima") is grid
        # Another thread's grid leaves this thread's last grid in place.
        worker = threading.Thread(target=mistic._key_grid, args=(twin, "maxima"))
        worker.start()
        worker.join()
        assert mistic._key_grid(field, "maxima") is grid
        # An equal field that is another object, or another orientation, gets
        # a new grid, and the thread keeps only the newest.
        other = mistic._key_grid(twin, "maxima")
        assert other is not grid and np.array_equal(other.keys, grid.keys)
        minima = mistic._key_grid(twin, "minima")
        valid = other.keys < np.inf
        assert minima is not other and np.array_equal(minima.keys[valid], -other.keys[valid])
        assert mistic._key_grid(field, "maxima") is not grid

    def test_key_grid_lets_a_deleted_field_go(self):
        field = make_field(np.arange(6.0).reshape(2, 3))
        watershed_zones(field, detect_focus_points(field, "maxima"), "maxima")
        gone = weakref.ref(field)
        del field
        gc.collect()
        assert gone() is None

    def test_each_year_calls_the_public_stages(self, monkeypatch):
        # A tracer that wraps the module's public functions sees one focus
        # detection per year and one watershed per year with foci.
        planted, _ = make_planted_stack(nrows=12, ncols=12, n_years=3, b_exact=2, seed=9)
        flat = make_field(np.full((12, 12), 2.0), units=CELSIUS)
        stack = _stack_of([planted.fields[0], flat, *planted.fields[1:]])

        def counted(stage, seen):
            def wrapper(*args, **kwargs):
                seen.append(kwargs.get("year"))
                return stage(*args, **kwargs)

            return wrapper

        calls = {"detect_focus_points": [], "watershed_zones": []}
        for name, seen in calls.items():
            monkeypatch.setattr(mistic, name, counted(getattr(mistic, name), seen))
        res = run_mistic(stack, MisticParams(orientation="maxima", min_years=1))
        assert calls["detect_focus_points"] == list(stack.years)
        with_foci = [year for year in stack.years if res.yearly_foci[year]]
        assert with_foci == [2000, 2002, 2003]
        assert len(calls["watershed_zones"]) == len(with_foci)

    def test_builds_no_object_per_focus(self, monkeypatch):
        # Repeating the years multiplies the foci, not the distinct focus
        # cells, cores or extents: the CellIndex objects run_mistic builds
        # must not grow, and it builds no FocusPoint at all.
        planted, _ = make_planted_stack(nrows=12, ncols=12, n_years=3, b_exact=2, seed=9)
        built = dict.fromkeys((FocusPoint, CellIndex), 0)
        for cls in built:
            def counting(klass, *args, new=cls.__new__, cls=cls):
                built[cls] += 1
                return new(klass, *args)

            monkeypatch.setattr(cls, "__new__", counting)
        counts = []
        for repeats in (1, 4):
            stack = _stack_of(list(planted.fields) * repeats)
            built.update(dict.fromkeys(built, 0))
            res = run_mistic(stack, MisticParams(orientation="maxima", min_years=1))
            counts.append((dict(built), sum(map(len, res.yearly_foci.values()))))
        (once, foci_once), (four_times, foci_four_times) = counts
        assert foci_four_times == 4 * foci_once > 0
        assert once == four_times and once[FocusPoint] == 0

    @pytest.mark.parametrize(
        "theta_high, theta_dom", [(5.0, None), (0.3, 0.5), (0.6, 0.0), (0.0, None)]
    )
    def test_thresholds_checked_before_the_years(self, monkeypatch, theta_high, theta_dom):
        def per_year_step(*args, **kwargs):
            raise AssertionError("the per-year loop ran")

        monkeypatch.setattr(mistic, "detect_focus_points", per_year_step)
        stack = _stack_of([make_field(np.full((3, 3), 2.0), units=CELSIUS)])
        params = MisticParams(min_years=1, theta_high=theta_high, theta_dom=theta_dom)
        with pytest.raises(ParameterError, match="thresholds must satisfy"):
            run_mistic(stack, params)

    @pytest.mark.parametrize(
        "params, named",
        [
            (MisticParams(min_years=0), "min_years"),
            (MisticParams(min_years=0, theta_dom=0.3), "min_years"),
            (MisticParams(min_years=1, mode="cr", radius=0), "radius"),
            (MisticParams(min_years=1, mode="ring"), "mode"),
            (MisticParams(min_years=2.5), "^min_years must be an integer"),
            (MisticParams(min_years=12.0), "^min_years must be an integer"),
            (MisticParams(min_years=1, mode="cr", radius=1.5), "^radius must be an integer"),
            (MisticParams(min_years=1, mode="cr", radius=float("inf")), "^radius must be an integer"),
            (MisticParams(min_years=1, radius=1.5), "^radius must be an integer"),
        ],
    )
    def test_grouping_and_min_years_checked_before_the_years(self, monkeypatch, params, named):
        calls = []
        detect = mistic.detect_focus_points
        monkeypatch.setattr(
            mistic, "detect_focus_points", lambda *a, **kw: calls.append(1) or detect(*a, **kw)
        )
        stack = _stack_of([make_field(np.full((3, 3), 2.0), units=CELSIUS)])
        with pytest.raises(ParameterError, match=named) as raised:
            run_mistic(stack, params)
        assert "theta" not in str(raised.value)
        assert calls == []

    def test_numpy_integer_parameters_accepted(self):
        stack, _ = make_planted_stack(nrows=12, ncols=12, n_years=5, b_exact=2, seed=9)
        plain = run_mistic(stack, MisticParams(min_years=2, mode="cr", radius=2))
        res = run_mistic(stack, MisticParams(min_years=np.int64(2), mode="cr", radius=np.int32(2)))
        assert res.cores == plain.cores
        assert np.array_equal(res.consensus.labels, plain.consensus.labels)
        assert res.theta_dom == plain.theta_dom == 2 / 5
        assert type(res.table.min_years) is int
        assert all(type(core.radius) is int for core in res.cores)

    def test_theta_dom_defaults_to_frequency_threshold(self):
        stack, _ = make_planted_stack(nrows=12, ncols=12, n_years=5, b_exact=2, seed=9)
        res = run_mistic(stack, MisticParams(orientation="maxima", min_years=2))
        assert res.theta_dom == pytest.approx(2 / 5)


def _stack_of(fields):
    from gridclust.ingest import AnnualMeanStack

    mask = np.ones(fields[0].geometry.shape, dtype=bool)
    for f in fields:
        mask &= f.mask
    years = tuple(range(2000, 2000 + len(fields)))
    return AnnualMeanStack(fields[0].geometry, CELSIUS, years, tuple(fields), mask)
