import json
import tracemalloc

import numpy as np
import pytest

from gridclust.errors import (
    CoverageError,
    DatasetError,
    ParameterError,
    YearLookupError,
)
from gridclust.gridcore import (
    CELSIUS,
    GEOGRAPHIC,
    PLANAR,
    GridGeometry,
)
from gridclust.ingest import (
    _read_grid_csv,
    annual_mean,
    build_annual_stack,
    load_dataset,
    load_elevation,
    resample,
    validate_dataset,
    write_dataset,
)

from conftest import make_field, planar_geom


def manifest_doc(nrows=2, ncols=2, calendar="360_day", years=(1995,), missing=-999.0):
    return {
        "variable": "tmax",
        "units": "celsius",
        "calendar": calendar,
        "geometry": {
            "mode": "planar",
            "origin_lat": 0.0,
            "origin_lon": 0.0,
            "cell_dlat": 1.0,
            "cell_dlon": 1.0,
            "nrows": nrows,
            "ncols": ncols,
        },
        "missing_value": missing,
        "years": list(years),
    }


def write_gts(root, doc, year_lines):
    root.mkdir(parents=True, exist_ok=True)
    (root / "data").mkdir(exist_ok=True)
    (root / "manifest.json").write_text(json.dumps(doc))
    for year, lines in year_lines.items():
        (root / "data" / f"{year}.csv").write_text("\n".join(lines) + "\n")


def constant_lines(ndays, ncells, value="10.0"):
    line = ",".join([value] * ncells)
    return [line] * ndays


class TestLoadDataset:
    def test_valid_fixed360_loads(self, tmp_path):
        write_gts(tmp_path, manifest_doc(), {1995: constant_lines(360, 4)})
        series = load_dataset(tmp_path)
        assert series.years == (1995,)
        assert series.year_values(1995).shape == (360, 2, 2)
        assert series.variable == "tmax"

    def test_gregorian_leap_day_count_enforced(self, tmp_path):
        doc = manifest_doc(calendar="gregorian", years=(2000,))
        write_gts(tmp_path, doc, {2000: constant_lines(365, 4)})
        with pytest.raises(DatasetError, match="2000.*366"):
            load_dataset(tmp_path)

    def test_gregorian_non_leap_century(self, tmp_path):
        doc = manifest_doc(calendar="gregorian", years=(1900,))
        write_gts(tmp_path, doc, {1900: constant_lines(366, 4)})
        with pytest.raises(DatasetError, match="1900.*365"):
            load_dataset(tmp_path)

    def test_sentinel_becomes_masked(self, tmp_path):
        lines = ["-999.0,1.0,2.0,3.0"] * 360
        write_gts(tmp_path, manifest_doc(), {1995: lines})
        series = load_dataset(tmp_path)
        assert np.isnan(series.year_values(1995)[:, 0, 0]).all()
        assert series.year_values(1995)[0, 0, 1] == 1.0

    def test_nonfinite_value_names_cell(self, tmp_path):
        lines = constant_lines(360, 4)
        lines[3] = "1.0,nan,2.0,3.0"
        write_gts(tmp_path, manifest_doc(), {1995: lines})
        with pytest.raises(DatasetError, match=r"year 1995 day 3 cell \(0,1\)"):
            load_dataset(tmp_path)

    def test_wrong_cell_count_names_day(self, tmp_path):
        lines = constant_lines(360, 4)
        lines[10] = "1.0,2.0,3.0"
        write_gts(tmp_path, manifest_doc(), {1995: lines})
        with pytest.raises(DatasetError, match="year 1995 day 10"):
            load_dataset(tmp_path)

    def test_missing_manifest_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_missing_payload_file(self, tmp_path):
        write_gts(tmp_path, manifest_doc(years=(1995, 1996)), {1995: constant_lines(360, 4)})
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_sentinel_inside_physical_range_rejected(self, tmp_path):
        write_gts(tmp_path, manifest_doc(missing=-99.0), {1995: constant_lines(360, 4)})
        with pytest.raises(DatasetError, match="missing_value"):
            load_dataset(tmp_path)

    def test_unsorted_years_rejected(self, tmp_path):
        doc = manifest_doc(years=(1996, 1995))
        write_gts(tmp_path, doc, {1995: constant_lines(360, 4), 1996: constant_lines(360, 4)})
        with pytest.raises(DatasetError, match="increasing"):
            load_dataset(tmp_path)


class TestGridCsvReader:
    def test_peak_memory_stays_below_all_tokens_at_once(self, tmp_path):
        # 30 lines of 129 x 135 values, 3.1 MB of text: converting every
        # token at once peaks at 40 MB on this file.
        rng = np.random.default_rng(3)
        values = rng.integers(-500, 4000, (30, 129 * 135)) / 100
        path = tmp_path / "grid.csv"
        np.savetxt(path, values, fmt="%.2f", delimiter=",")
        tracemalloc.start()
        try:
            grid = _read_grid_csv(path, 30, 129 * 135, str, str)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(grid, values)
        assert peak < 30 * 2**20


class TestValidateDataset:
    def test_collects_all_violations(self, tmp_path):
        lines = constant_lines(360, 4)[:-1]  # one day short
        write_gts(tmp_path, manifest_doc(years=(1995, 1996)), {1995: lines})
        violations = validate_dataset(tmp_path)
        assert len(violations) == 2
        assert any("359" in v for v in violations)
        assert any("1996" in v for v in violations)

    def test_clean_dataset_no_violations(self, tmp_path):
        write_gts(tmp_path, manifest_doc(), {1995: constant_lines(360, 4)})
        assert validate_dataset(tmp_path) == []


class TestRoundTrip:
    def test_load_write_load_identical(self, tmp_path, tiny_series):
        write_dataset(tiny_series, tmp_path / "a")
        loaded = load_dataset(tmp_path / "a")
        write_dataset(loaded, tmp_path / "b")
        reloaded = load_dataset(tmp_path / "b")
        for year in tiny_series.years:
            assert np.array_equal(
                loaded.year_values(year), reloaded.year_values(year), equal_nan=True
            )
        assert (tmp_path / "a" / "data" / "1995.csv").read_bytes() == (
            tmp_path / "b" / "data" / "1995.csv"
        ).read_bytes()

    def test_elevation_roundtrip(self, tmp_path, tiny_series):
        mask = np.array([[True, True, True], [True, True, False]])
        elev = make_field([[100.0, 200.0, 300.0], [400.0, 500.0, 0.0]], mask=mask, units="meters")
        write_dataset(tiny_series, tmp_path, elevation=elev)
        loaded = load_elevation(tmp_path / "elevation.csv", tiny_series.geometry, -999.0)
        assert np.array_equal(loaded.mask, mask)
        assert loaded.values[0, 2] == 300.0


class TestAnnualMean:
    def test_constant_series(self, tiny_series):
        f = annual_mean(tiny_series, 1995)
        assert np.all(f.values[f.mask] == 10.0)

    def test_always_masked_cell_stays_masked(self, tiny_series):
        f = annual_mean(tiny_series, 1995)
        assert not f.mask[1, 2]

    def test_alternating_days_average_to_half(self):
        from gridclust.gridcore import FIXED360, CalendarSpec, DailySeriesGrid

        arr = np.zeros((360, 1, 1))
        arr[1::2] = 1.0
        series = DailySeriesGrid(
            geometry=planar_geom(1, 1),
            calendar=CalendarSpec(FIXED360),
            units=CELSIUS,
            years=(1995,),
            data={1995: arr},
        )
        assert annual_mean(series, 1995).values[0, 0] == pytest.approx(0.5)

    def test_unknown_year(self, tiny_series):
        with pytest.raises(YearLookupError):
            annual_mean(tiny_series, 1876)

    def test_min_valid_fraction_range(self, tiny_series):
        with pytest.raises(ParameterError):
            annual_mean(tiny_series, 1995, min_valid_fraction=0.0)
        with pytest.raises(ParameterError):
            annual_mean(tiny_series, 1995, min_valid_fraction=1.5)

    def test_partial_year_tolerance(self):
        from gridclust.gridcore import FIXED360, CalendarSpec, DailySeriesGrid

        arr = np.full((360, 1, 2), 4.0)
        arr[180:, 0, 0] = np.nan  # half the year missing at cell 0
        series = DailySeriesGrid(
            geometry=planar_geom(1, 2),
            calendar=CalendarSpec(FIXED360),
            units=CELSIUS,
            years=(1995,),
            data={1995: arr},
        )
        strict = annual_mean(series, 1995, 1.0)
        assert not strict.mask[0, 0] and strict.mask[0, 1]
        lenient = annual_mean(series, 1995, 0.5)
        assert lenient.mask[0, 0]
        assert lenient.values[0, 0] == pytest.approx(4.0)

    def test_mean_bounded_by_daily_extremes(self):
        from gridclust.gridcore import FIXED360, CalendarSpec, DailySeriesGrid

        rng = np.random.default_rng(11)
        arr = rng.normal(15.0, 8.0, size=(360, 3, 3))
        series = DailySeriesGrid(
            geometry=planar_geom(3, 3),
            calendar=CalendarSpec(FIXED360),
            units=CELSIUS,
            years=(1995,),
            data={1995: arr},
        )
        f = annual_mean(series, 1995)
        assert np.all(f.values >= arr.min(axis=0))
        assert np.all(f.values <= arr.max(axis=0))


class TestAnnualStack:
    def test_stack_length_matches_years(self):
        from gridclust.gridcore import FIXED360, CalendarSpec, DailySeriesGrid

        years = tuple(range(1969, 2000))  # 31 years
        data = {y: np.full((360, 2, 2), float(i)) for i, y in enumerate(years)}
        series = DailySeriesGrid(
            geometry=planar_geom(2, 2),
            calendar=CalendarSpec(FIXED360),
            units=CELSIUS,
            years=years,
            data=data,
        )
        stack = build_annual_stack(series)
        assert stack.n_years == 31
        assert len(stack.fields) == 31

    def test_singleton_stack_equals_annual_mean(self, tiny_series):
        single = build_annual_stack(tiny_series)
        f = annual_mean(tiny_series, 1995)
        assert np.array_equal(single.fields[0].values, f.values)

    def test_combined_mask_is_intersection(self):
        from gridclust.gridcore import FIXED360, CalendarSpec, DailySeriesGrid

        a = np.full((360, 1, 2), 1.0)
        b = np.full((360, 1, 2), 2.0)
        b[:, 0, 1] = np.nan  # valid in year 1 only
        series = DailySeriesGrid(
            geometry=planar_geom(1, 2),
            calendar=CalendarSpec(FIXED360),
            units=CELSIUS,
            years=(1995, 1996),
            data={1995: a, 1996: b},
        )
        stack = build_annual_stack(series)
        assert stack.fields[0].mask[0, 1]
        assert not stack.mask[0, 1]
        assert stack.mask[0, 0]


class TestResample:
    def test_identity_both_methods(self):
        rng = np.random.default_rng(2)
        geom = planar_geom(4, 5, cell=2.0)
        f = make_field(rng.random((4, 5)), geometry=geom)
        for method in ("area_weighted", "nearest"):
            out = resample(f, geom, method)
            assert np.array_equal(out.values, f.values)
            assert np.array_equal(out.mask, f.mask)

    def test_constant_invariance(self):
        src = planar_geom(6, 6, cell=3.0)
        dst = GridGeometry(PLANAR, 1.0, 1.0, 2.0, 2.0, 5, 5)
        f = make_field(np.full((6, 6), 5.0), geometry=src)
        out = resample(f, dst, "area_weighted")
        assert out.mask.any()
        assert np.allclose(out.values[out.mask], 5.0, atol=1e-12)

    def test_two_cell_merge_averages(self):
        # two equal-area 1 m source cells, values 0 and 10, merged into one
        # 2 m target cell -> 5.0
        src = planar_geom(1, 2, cell=1.0)
        dst = GridGeometry(PLANAR, 0.0, 0.5, 1.0, 2.0, 1, 1)
        f = make_field([[0.0, 10.0]], geometry=src)
        out = resample(f, dst, "area_weighted")
        assert out.values[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_planar_mean_conservation(self):
        rng = np.random.default_rng(4)
        src = GridGeometry(PLANAR, 1.25, 1.875, 2.5, 3.75, 12, 8)
        dst = GridGeometry(PLANAR, 0.5, 0.5, 1.0, 1.0, 30, 30)
        f = make_field(rng.normal(10.0, 5.0, (12, 8)), geometry=src)
        out = resample(f, dst, "area_weighted")
        assert out.mask.all()
        src_mean = f.values.mean()  # equal-area cells
        dst_mean = out.values.mean()
        assert abs(src_mean - dst_mean) < 1e-9

    def test_geographic_constant_preserved(self):
        src = GridGeometry(GEOGRAPHIC, -36.25, 0.0, 2.5, 3.75, 30, 10)
        dst = GridGeometry(GEOGRAPHIC, -37.0, 0.0, 1.0, 1.0, 75, 37)
        f = make_field(np.full((30, 10), 7.5), geometry=src)
        out = resample(f, dst, "area_weighted")
        assert out.mask.any()
        assert np.allclose(out.values[out.mask], 7.5, atol=1e-9)

    def test_low_coverage_cells_masked(self):
        src = planar_geom(2, 2, cell=1.0)
        # target extends well past the source: outer cells get no coverage
        dst = GridGeometry(PLANAR, 0.0, 0.0, 1.0, 1.0, 4, 4)
        f = make_field(np.ones((2, 2)), geometry=src)
        out = resample(f, dst, "area_weighted")
        assert out.mask[0, 0] and out.mask[1, 1]
        assert not out.mask[3, 3]

    def test_masked_source_counts_against_coverage(self):
        src = planar_geom(1, 2, cell=1.0)
        mask = np.array([[True, False]])
        f = make_field([[4.0, 0.0]], mask=mask, geometry=src)
        # exactly half the target area valid: kept (rule masks strictly below 0.5)
        dst_half = GridGeometry(PLANAR, 0.0, 0.5, 1.0, 2.0, 1, 1)
        out = resample(f, dst_half, "area_weighted")
        assert out.mask[0, 0]
        assert out.values[0, 0] == pytest.approx(4.0)
        # a quarter valid: masked
        dst_quarter = GridGeometry(PLANAR, 0.0, 1.5, 1.0, 4.0, 1, 1)
        out = resample(f, dst_quarter, "area_weighted")
        assert not out.mask[0, 0]

    def test_nearest_picks_containing_cell(self):
        src = planar_geom(2, 2, cell=2.0)
        dst = GridGeometry(PLANAR, 0.0, 0.0, 2.0, 2.0, 2, 2)
        f = make_field([[1.0, 2.0], [3.0, 4.0]], geometry=src)
        out = resample(f, dst, "nearest")
        assert np.array_equal(out.values, f.values)

    def test_disjoint_raises(self):
        src = planar_geom(2, 2)
        dst = GridGeometry(PLANAR, 100.0, 100.0, 1.0, 1.0, 2, 2)
        f = make_field(np.ones((2, 2)), geometry=src)
        with pytest.raises(CoverageError):
            resample(f, dst)

    def test_mode_mismatch_rejected(self):
        src = planar_geom(2, 2)
        dst = GridGeometry(GEOGRAPHIC, 0.0, 0.0, 1.0, 1.0, 2, 2)
        f = make_field(np.ones((2, 2)), geometry=src)
        with pytest.raises(ParameterError):
            resample(f, dst)
