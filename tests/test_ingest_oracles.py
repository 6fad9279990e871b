"""Differential tests: the grid-CSV reader and writer against the line loops.

The oracles below are the earlier year-file loader (one ``_parse_day_line``
and one sentinel check per day), the earlier ``load_elevation`` line loop,
and the earlier writers, which format value by value through
``repr(float(v))``.  The library must write the same bytes, read back the
same array bits, and name a single fault with the same message.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridclust import ingest
from gridclust.errors import DatasetError
from gridclust.gridcore import (
    CELSIUS,
    FIXED360,
    METERS,
    CalendarSpec,
    DailySeriesGrid,
    ScalarField,
    days_in_year,
)
from gridclust.ingest import (
    DATA_DIR,
    ELEVATION_NAME,
    MANIFEST_NAME,
    _load_year_file,
    load_elevation,
    load_manifest,
    validate_dataset,
    write_dataset,
    write_elevation,
)

from conftest import planar_geom

YEAR = 1995
NDAYS = 360


def oracle_format_value(v):
    return repr(float(v))


def oracle_parse_day_line(line, ncells, where):
    parts = line.split(",")
    if len(parts) != ncells:
        raise DatasetError(f"{where}: expected {ncells} values, got {len(parts)}")
    try:
        return np.asarray(parts, dtype=np.float64)
    except ValueError:
        for idx, p in enumerate(parts):
            try:
                float(p)
            except ValueError:
                raise DatasetError(f"{where}, cell {idx}: unparseable value {p.strip()!r}") from None
        raise


def oracle_load_year_file(path, year, manifest):
    nrows, ncols = manifest.geometry.shape
    ncells = nrows * ncols
    expected_days = days_in_year(manifest.calendar, year)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != expected_days:
        raise DatasetError(
            f"year {year}: {len(lines)} daily lines, calendar requires {expected_days}"
        )
    out = np.empty((expected_days, nrows, ncols), dtype=np.float64)
    mv = manifest.missing_value
    for day, line in enumerate(lines):
        flat = oracle_parse_day_line(line, ncells, f"year {year} day {day}")
        grid = flat.reshape(nrows, ncols)
        missing = grid == mv
        bad = ~np.isfinite(grid) & ~missing
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise DatasetError(
                f"year {year} day {day} cell ({r},{c}): non-finite value that is "
                f"not the missing_value sentinel"
            )
        out[day] = np.where(missing, np.nan, grid)
    return out


def oracle_load_elevation(path, geometry, missing_value):
    nrows, ncols = geometry.shape
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != nrows:
        raise DatasetError(f"{path}: expected {nrows} elevation lines, got {len(lines)}")
    values = np.empty((nrows, ncols), dtype=np.float64)
    for r, line in enumerate(lines):
        values[r] = oracle_parse_day_line(line, ncols, f"{path} line {r}")
    mask = values != missing_value
    bad = ~np.isfinite(values) & mask
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DatasetError(f"{path} cell ({r},{c}): non-finite elevation")
    return ScalarField(geometry, np.where(mask, values, 0.0), mask, METERS)


def oracle_write_year(series, year, path):
    mv = series.missing_value
    arr = series.year_values(year)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for day in range(arr.shape[0]):
            flat = arr[day].ravel()
            fh.write(",".join(
                oracle_format_value(mv) if np.isnan(v) else oracle_format_value(v) for v in flat
            ))
            fh.write("\n")


def oracle_write_elevation(elevation, path, missing_value):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in range(elevation.geometry.nrows):
            row = [
                oracle_format_value(elevation.values[r, c]) if elevation.mask[r, c]
                else oracle_format_value(missing_value)
                for c in range(elevation.geometry.ncols)
            ]
            fh.write(",".join(row))
            fh.write("\n")


# -- strategies ---------------------------------------------------------------

SPECIAL = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0, -40.0, 0.1]
)
VALUES = st.one_of(
    SPECIAL,
    st.integers(-10**6, 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-60.0, 60.0),
)
SENTINELS = st.sampled_from([-999.0, -9999.0, 1e20, -1e300, 999.0])


@st.composite
def grids(draw, nlines=None, min_rows=1):
    """A valid (lines, nrows, ncols) float grid; NaN marks a missing cell.

    A few drawn rows are tiled to ``nlines`` rows, so a year file stays
    cheap to draw while its lines still differ.
    """
    nrows = draw(st.integers(min_rows, 4))
    ncols = draw(st.integers(1, 4))
    nlines = nlines or nrows
    block = draw(st.integers(1, 5))
    cells = draw(st.lists(st.one_of(VALUES, st.just(np.nan)), min_size=block * nrows * ncols,
                          max_size=block * nrows * ncols))
    base = np.array(cells, dtype=np.float64).reshape(block, nrows, ncols)
    return np.resize(base, (nlines, nrows, ncols))


def make_series(cube, missing_value):
    _, nrows, ncols = cube.shape
    return DailySeriesGrid(
        geometry=planar_geom(nrows, ncols),
        calendar=CalendarSpec(FIXED360),
        units=CELSIUS,
        years=(YEAR,),
        data={YEAR: cube},
        variable="tmax",
        missing_value=missing_value,
    )


def make_elevation(grid):
    values = grid[0]
    mask = ~np.isnan(values)
    return ScalarField(planar_geom(*values.shape), np.where(mask, values, 0.0), mask, METERS)


def outcome(fn, *args):
    """The array bits, or the message of the DatasetError the call ended in."""
    try:
        result = fn(*args)
    except DatasetError as exc:
        return ("raised", str(exc))
    if isinstance(result, ScalarField):
        return (result.values.tobytes(), result.mask.tobytes())
    return result.tobytes()


# -- valid grids --------------------------------------------------------------

@given(cube=grids(NDAYS), mv=SENTINELS)
def test_year_files_write_and_read_like_the_line_loops(cube, mv):
    series = make_series(cube, mv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_dataset(series, root)
        path = root / DATA_DIR / f"{YEAR}.csv"
        expected = Path(tmp) / "oracle.csv"
        oracle_write_year(series, YEAR, expected)
        assert path.read_bytes() == expected.read_bytes()

        manifest = load_manifest(root)
        new = _load_year_file(root, YEAR, manifest)
        assert new.tobytes() == oracle_load_year_file(path, YEAR, manifest).tobytes()


@given(grid=grids(), mv=SENTINELS)
def test_elevation_writes_and_reads_like_the_line_loops(grid, mv):
    elevation = make_elevation(grid)
    with tempfile.TemporaryDirectory() as tmp:
        path, expected = Path(tmp) / ELEVATION_NAME, Path(tmp) / "oracle.csv"
        write_elevation(elevation, path, mv)
        oracle_write_elevation(elevation, expected, mv)
        assert path.read_bytes() == expected.read_bytes()
        geom = elevation.geometry
        assert outcome(load_elevation, path, geom, mv) == outcome(
            oracle_load_elevation, path, geom, mv
        )


def test_infinite_values_are_written_like_the_line_loop():
    cube = np.full((NDAYS, 1, 3), 1.5)
    cube[:, 0, 0] = np.inf
    cube[:, 0, 1] = -np.inf
    cube[:, 0, 2] = np.nan
    series = make_series(cube, -999.0)
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(series, Path(tmp))
        oracle_write_year(series, YEAR, Path(tmp) / "oracle.csv")
        written = (Path(tmp) / DATA_DIR / f"{YEAR}.csv").read_bytes()
        assert written == (Path(tmp) / "oracle.csv").read_bytes()
        assert written.splitlines()[0] == b"inf,-inf,-999.0"


# -- faulty files -------------------------------------------------------------

UNPARSEABLE = st.sampled_from(["abc", "1e", "", " ", "0x10", "1.2.3", "--1", "1d5", "é"])
NONFINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e400"])
FAULTS = ("fields", "token", "blank", "nonfinite", "count")


def inject(lines, fault, line, cell, data):
    """Apply one fault to a list of CSV lines (in place)."""
    parts = lines[line].split(",")
    if fault == "fields":
        if len(parts) > 1 and data.draw(st.booleans(), label="drop a value"):
            del parts[cell % len(parts)]
        else:
            parts.append(parts[0])
        lines[line] = ",".join(parts)
    elif fault in ("token", "nonfinite"):
        parts[cell % len(parts)] = data.draw(UNPARSEABLE if fault == "token" else NONFINITE)
        lines[line] = ",".join(parts)
    elif fault == "blank":
        lines[line] = ""
    else:
        how = data.draw(st.sampled_from(["drop", "repeat", "insert blank"]), label="count")
        if how == "drop":
            del lines[line]
        else:
            lines.insert(line, lines[line] if how == "repeat" else "")


@st.composite
def faulty_lines(draw, text, nfaults):
    """The lines of ``text`` with ``nfaults`` faults on distinct lines, and
    the fault kinds.  A line-count fault, which could undo another one,
    comes at most once and last."""
    lines = text.splitlines()
    kinds = draw(st.lists(st.sampled_from(FAULTS), min_size=nfaults, max_size=nfaults))
    kinds = sorted(kinds, key=lambda kind: kind == "count")
    if kinds.count("count") > 1:
        kinds = [k for k in kinds if k != "count"] + ["count"]
    where = draw(st.lists(st.integers(0, len(lines) - 1), min_size=len(kinds),
                          max_size=len(kinds), unique=True))
    for kind, line in zip(kinds, where):
        inject(lines, kind, line, draw(st.integers(0, 20)), draw(st.data()))
    return lines, kinds


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def valid_dataset(root, cube, mv):
    write_dataset(make_series(cube, mv), root)
    return root / DATA_DIR / f"{YEAR}.csv"


@pytest.mark.parametrize("nfaults", [1, 2])
@given(cube=grids(NDAYS), mv=SENTINELS, data=st.data())
def test_faulty_year_files_fail_like_the_line_loop(nfaults, cube, mv, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = valid_dataset(root, cube, mv)
        lines, kinds = data.draw(faulty_lines(path.read_text(), nfaults))
        write_lines(path, lines)
        manifest = load_manifest(root)
        new = outcome(_load_year_file, root, YEAR, manifest)
        expected = outcome(oracle_load_year_file, path, YEAR, manifest)
        # The line loop checked each day's values before parsing the next
        # day; the reader parses the whole file first.  So a non-finite
        # value before a parse fault is the one case that may be named
        # differently (both sides still raise).
        kinds = set(kinds)
        if "nonfinite" in kinds and kinds & {"fields", "token", "blank"} and "count" not in kinds:
            assert new[0] == expected[0] == "raised"
        else:
            assert new == expected


@pytest.mark.parametrize("budget", [1, 9])
@settings(max_examples=30)
@given(cube=grids(NDAYS), mv=SENTINELS, data=st.data())
def test_year_files_read_in_small_blocks_like_the_line_loop(budget, cube, mv, data):
    # A budget of 1 converts one line per block; 9 converts 1 to 9 lines.
    nfaults = data.draw(st.integers(0, 2), label="faults")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_BLOCK_TOKENS", budget)
        root = Path(tmp)
        path = valid_dataset(root, cube, mv)
        lines, kinds = data.draw(faulty_lines(path.read_text(), nfaults))
        write_lines(path, lines)
        manifest = load_manifest(root)
        new = outcome(_load_year_file, root, YEAR, manifest)
        expected = outcome(oracle_load_year_file, path, YEAR, manifest)
        # As above: every block is parsed before any value is checked.
        kinds = set(kinds)
        if "nonfinite" in kinds and kinds & {"fields", "token", "blank"} and "count" not in kinds:
            assert new[0] == expected[0] == "raised"
        else:
            assert new == expected


@pytest.mark.parametrize("nfaults", [1, 2])
@given(grid=grids(min_rows=2), mv=SENTINELS, data=st.data())
def test_faulty_elevation_files_fail_like_the_line_loop(nfaults, grid, mv, data):
    elevation = make_elevation(grid)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ELEVATION_NAME
        write_elevation(elevation, path, mv)
        write_lines(path, data.draw(faulty_lines(path.read_text(), nfaults))[0])
        geom = elevation.geometry
        # Both parse every line before checking values: same first fault.
        assert outcome(load_elevation, path, geom, mv) == outcome(
            oracle_load_elevation, path, geom, mv
        )


def test_non_utf8_year_file_is_one_violation_naming_the_file(tmp_path):
    path = valid_dataset(tmp_path, np.full((NDAYS, 2, 2), 10.0), -999.0)
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    with pytest.raises(DatasetError, match=rf"{path.name}: not UTF-8 text"):
        _load_year_file(tmp_path, YEAR, load_manifest(tmp_path))
    violations = validate_dataset(tmp_path)
    assert len(violations) == 1 and str(path) in violations[0]


def test_non_utf8_elevation_file_names_the_file(tmp_path):
    path = tmp_path / ELEVATION_NAME
    path.write_bytes(b"1.0,\xe9\n")
    with pytest.raises(DatasetError, match=rf"{ELEVATION_NAME}: not UTF-8 text"):
        load_elevation(path, planar_geom(1, 2), -999.0)


def test_non_utf8_manifest_names_the_file(tmp_path):
    (tmp_path / MANIFEST_NAME).write_bytes(b"\xff\xfe" + json.dumps({"a": 1}).encode())
    with pytest.raises(DatasetError, match=MANIFEST_NAME):
        load_manifest(tmp_path)
