import math
import re

import numpy as np
import pytest

from gridclust.errors import (
    BoundsError,
    GridSizeError,
    ParameterError,
    UnitError,
)
from gridclust.gridcore import (
    CELSIUS,
    DEGREES_SLOPE,
    FIXED360,
    GEOGRAPHIC,
    GREGORIAN,
    KELVIN,
    METERS,
    PLANAR,
    CalendarSpec,
    CellIndex,
    GridGeometry,
    ZoneMap,
    days_in_year,
    month_day_to_ordinal,
    neighbors8,
    ordinal_to_month_day,
    slope_field,
    to_celsius,
)

from conftest import make_field, planar_geom


class TestGeometry:
    def test_basic_properties(self):
        g = GridGeometry(GEOGRAPHIC, 7.5, 67.5, 1.0, 1.0, 31, 31)
        assert g.shape == (31, 31)
        assert g.lat_edges()[0] == 7.0
        assert g.lat_edges()[-1] == 38.0

    def test_rejects_nonpositive_cells(self):
        with pytest.raises(ParameterError):
            GridGeometry(PLANAR, 0, 0, 0.0, 1.0, 4, 4)

    def test_rejects_out_of_range_latitudes(self):
        with pytest.raises(ParameterError):
            GridGeometry(GEOGRAPHIC, 80.0, 0.0, 1.0, 1.0, 20, 4)

    def test_rejects_empty_grid(self):
        with pytest.raises(ParameterError):
            GridGeometry(PLANAR, 0, 0, 1.0, 1.0, 0, 4)


class TestScalarField:
    def test_rejects_nonfinite_unmasked(self):
        with pytest.raises(ParameterError):
            make_field([[1.0, np.nan], [0.0, 0.0]])

    def test_nonfinite_masked_is_fine(self):
        mask = np.array([[True, False], [True, True]])
        f = make_field([[1.0, np.nan], [0.0, 0.0]], mask=mask)
        assert f.mask.sum() == 3

    def test_values_are_frozen(self):
        f = make_field(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


class TestNeighbors8:
    def test_interior_cell_has_eight(self):
        g = planar_geom(3, 3)
        nbrs = neighbors8(g, None, CellIndex(1, 1))
        assert len(nbrs) == 8
        assert nbrs == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)
        ]

    def test_corner_cell_has_three(self):
        g = planar_geom(3, 3)
        assert neighbors8(g, None, CellIndex(0, 0)) == [(0, 1), (1, 0), (1, 1)]

    def test_masked_neighbor_removed(self):
        g = planar_geom(3, 3)
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 2] = False
        nbrs = neighbors8(g, mask, CellIndex(1, 1))
        assert len(nbrs) == 7
        assert (0, 2) not in nbrs

    def test_out_of_bounds_raises(self):
        g = planar_geom(3, 3)
        with pytest.raises(BoundsError):
            neighbors8(g, None, CellIndex(3, 0))

    def test_symmetry_under_random_masks(self):
        rng = np.random.default_rng(7)
        g = planar_geom(6, 5)
        for _ in range(20):
            mask = rng.random((6, 5)) > 0.3
            for r in range(6):
                for c in range(5):
                    if not mask[r, c]:
                        continue
                    for nb in neighbors8(g, mask, CellIndex(r, c)):
                        assert CellIndex(r, c) in neighbors8(g, mask, nb)

    def test_count_never_exceeds_eight(self):
        g = planar_geom(4, 4)
        for r in range(4):
            for c in range(4):
                assert len(neighbors8(g, None, CellIndex(r, c))) <= 8


class TestCalendar:
    def test_fixed360_always_360(self):
        assert days_in_year(CalendarSpec(FIXED360), 1995) == 360
        assert days_in_year(CalendarSpec(FIXED360), 2000) == 360

    def test_gregorian_leap_rules(self):
        greg = CalendarSpec(GREGORIAN)
        assert days_in_year(greg, 2004) == 366
        assert days_in_year(greg, 1900) == 365
        assert days_in_year(greg, 2000) == 366
        assert days_in_year(greg, 1999) == 365

    def test_day_total_1969_to_2005(self):
        greg = CalendarSpec(GREGORIAN)
        assert sum(days_in_year(greg, y) for y in range(1969, 2006)) == 13514

    def test_fixed360_month_day_roundtrip(self):
        cal = CalendarSpec(FIXED360)
        for ordinal in range(360):
            month, day = ordinal_to_month_day(cal, 1995, ordinal)
            assert 1 <= month <= 12 and 1 <= day <= 30
            assert month_day_to_ordinal(cal, 1995, month, day) == ordinal
        assert ordinal_to_month_day(cal, 1995, 359) == (12, 30)

    def test_gregorian_month_day(self):
        cal = CalendarSpec(GREGORIAN)
        assert ordinal_to_month_day(cal, 2004, 59) == (2, 29)
        assert month_day_to_ordinal(cal, 2004, 12, 31) == 365

    def test_bad_ordinal(self):
        with pytest.raises(ParameterError):
            ordinal_to_month_day(CalendarSpec(FIXED360), 1995, 360)


class TestToCelsius:
    def test_freezing_point(self):
        f = to_celsius(make_field([[273.15]], units=KELVIN))
        assert f.values[0, 0] == 0.0
        assert f.units == CELSIUS

    def test_arithmetic(self):
        f = to_celsius(make_field([[300.0]], units=KELVIN))
        assert f.values[0, 0] == pytest.approx(26.85)

    def test_celsius_identity(self):
        f = make_field([[5.0]], units=CELSIUS)
        assert to_celsius(f) is f

    def test_mask_preserved(self):
        mask = np.array([[True, False]])
        f = to_celsius(make_field([[280.0, 999.0]], mask=mask, units=KELVIN))
        assert f.mask.tolist() == [[True, False]]

    def test_non_temperature_units_rejected(self):
        with pytest.raises(UnitError):
            to_celsius(make_field([[1.0]], units=METERS))

    def test_roundtrip_recovers_kelvin(self):
        rng = np.random.default_rng(3)
        values = 250.0 + 60.0 * rng.random((5, 5))
        f = to_celsius(make_field(values, units=KELVIN))
        assert np.max(np.abs((f.values + 273.15) - values)) < 1e-12


class TestSlope:
    def test_constant_field_zero_interior(self):
        f = slope_field(make_field(np.full((5, 5), 42.0), units=METERS))
        assert f.units == DEGREES_SLOPE
        assert np.all(f.values[f.mask] == 0.0)
        assert f.mask[1:-1, 1:-1].all()
        assert not f.mask[0].any() and not f.mask[-1].any()

    def test_planar_ramp_matches_hand_stencil(self):
        # columns at 0/100/200 m elevation on 1000 m cells: slope atan(0.1)
        geom = planar_geom(3, 3, cell=1000.0)
        elev = np.tile([0.0, 100.0, 200.0], (3, 1))
        f = slope_field(make_field(elev, units=METERS, geometry=geom))
        assert f.values[1, 1] == pytest.approx(math.degrees(math.atan(0.1)), abs=1e-12)
        assert f.values[1, 1] == pytest.approx(5.710593137499643, abs=1e-9)

    def test_masked_stencil_member_masks_output(self):
        geom = planar_geom(4, 4, cell=10.0)
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        f = slope_field(make_field(np.zeros((4, 4)), mask=mask, units=METERS, geometry=geom))
        assert not f.mask[1, 1]
        assert f.mask[2, 2]

    def test_small_grid_rejected(self):
        with pytest.raises(GridSizeError):
            slope_field(make_field(np.zeros((2, 3)), units=METERS))

    def test_wrong_units_rejected(self):
        with pytest.raises(UnitError):
            slope_field(make_field(np.zeros((3, 3)), units=CELSIUS))

    def test_geographic_uses_latitude_scaled_cells(self):
        # Same elevation ramp, higher latitude row spacing shrinks east-west
        # meters, so the slope across columns steepens with latitude.
        geom = GridGeometry(GEOGRAPHIC, 0.0, 0.0, 1.0, 1.0, 5, 5)
        elev = np.tile(np.arange(5.0) * 1000.0, (5, 1))
        f = slope_field(make_field(elev, units=METERS, geometry=geom))
        assert f.values[3, 2] > f.values[1, 2] > 0


class TestZoneMap:
    def test_roundtrip_labels(self):
        labels = np.array([[0, 0, -1], [1, 1, -1]], dtype=int)
        zm = ZoneMap(planar_geom(2, 3), labels, {0: CellIndex(0, 0), 1: CellIndex(1, 0)})
        assert len(zm.anchors) == 2
        assert (zm.labels >= 0).sum() == 4
        assert zm.present_labels() == [0, 1]
        assert np.argwhere(zm.labels == 1).tolist() == [[1, 0], [1, 1]]

    def test_rejects_bad_labels(self):
        with pytest.raises(ParameterError):
            ZoneMap(planar_geom(1, 2), np.array([[-2, 0]]))

    @pytest.mark.parametrize(
        "labels, value, cell",
        [
            ([[0, 0.7]], 0.7, (0, 1)),
            ([["1", 0]], "1", (0, 0)),
            ([[0, np.nan]], math.nan, (0, 1)),
            ([[0, 2**31]], 2**31, (0, 1)),
            ([[-2, 0]], -2, (0, 0)),
            ([[0, -np.inf]], -math.inf, (0, 1)),
        ],
    )
    def test_rejects_labels_that_equal_no_int(self, labels, value, cell):
        # 0.7 used to be truncated to 0 and "1" read as 1; NaN and 2**31 ended
        # in numpy's ValueError and OverflowError.
        named = re.escape(f"labels must be ints in [-1, 2147483647], got {value!r} at cell {cell}")
        with pytest.raises(ParameterError, match=named):
            ZoneMap(planar_geom(1, 2), labels)

    def test_keeps_labels_that_equal_ints(self):
        zm = ZoneMap(planar_geom(2, 2), np.zeros((2, 2)))
        assert zm.labels.dtype == np.int32 and zm.labels.tolist() == [[0, 0], [0, 0]]
        zm = ZoneMap(planar_geom(1, 3), np.array([-1.0, 2.0**31 - 1, 3.0]).reshape(1, 3))
        assert zm.labels.tolist() == [[-1, 2**31 - 1, 3]]
        zm = ZoneMap(planar_geom(1, 2), np.array([[7, 0]], dtype=np.uint64))
        assert zm.labels.tolist() == [[7, 0]]

    @pytest.mark.parametrize("label", [1.5, "0", None])
    def test_rejects_anchor_labels_that_are_no_integer(self, label):
        # int() would read 1.5 as 1 and "0" as 0.
        with pytest.raises(ParameterError, match=f"^anchor label must be an integer, got {label!r}$"):
            ZoneMap(planar_geom(1, 3), [[1, 1, 1]], {label: CellIndex(0, 0)})

    @pytest.mark.parametrize("label", [2**70, 2**31, -(2**31) - 1])
    def test_rejects_anchor_labels_beyond_int32(self, label):
        # Such a label can label no cell; 2**70 used to end in numpy's
        # OverflowError in consensus_zone_map and build_cores.
        named = f"^anchor label {label} is outside the int32 range of labels$"
        with pytest.raises(ParameterError, match=named):
            ZoneMap(planar_geom(1, 3), [[1, 1, 1]], {label: CellIndex(0, 1)})

    def test_keeps_anchor_labels_at_the_int32_ends(self):
        zm = ZoneMap(planar_geom(1, 3), [[1, 1, 1]], {2**31 - 1: (0, 0), -(2**31): (0, 1)})
        assert zm.anchors == {2**31 - 1: CellIndex(0, 0), -(2**31): CellIndex(0, 1)}

    def test_reads_anchor_labels_as_ints(self):
        zm = ZoneMap(planar_geom(1, 3), [[1, 2, 2]], {np.int64(1): (0, 0), np.int8(2): CellIndex(0, 1)})
        assert zm.anchors == {1: CellIndex(0, 0), 2: CellIndex(0, 1)}
        assert {(type(k), type(v)) for k, v in zm.anchors.items()} == {(int, CellIndex)}

    @pytest.mark.parametrize("anchor", [(0, 1, 2), (0,), None])
    def test_rejects_anchors_that_are_no_pair(self, anchor):
        named = re.escape(f"anchor 1 must be a (row, col) pair, got {anchor!r}") + "$"
        with pytest.raises(ParameterError, match=named):
            ZoneMap(planar_geom(1, 3), [[1, 1, 1]], {0: CellIndex(0, 0), 1: anchor})
