"""Dataset I/O, validation, annual averaging, and grid-to-grid resampling.

On-disk dataset layout ("GTS" format):

- ``manifest.json`` with fields ``variable``, ``units`` ("celsius"|"kelvin"),
  ``calendar`` ("gregorian"|"360_day"), ``geometry`` (``mode``, ``origin_lat``,
  ``origin_lon``, ``cell_dlat``, ``cell_dlon``, ``nrows``, ``ncols``),
  ``missing_value`` (number) and ``years`` (array of integers).
- ``data/<year>.csv`` with one line per day, each line carrying
  ``nrows * ncols`` comma-separated decimal values in row-major order,
  LF line endings.
- optional ``elevation.csv``: ``nrows`` lines of ``ncols`` values in meters;
  ``missing_value`` applies.

Year files and ``elevation.csv`` share one grid-CSV reader, numpy's C reader
with a line walk that only names a fault, and one writer.  Loading is strict:
files must be UTF-8, field types must match, day counts must match the
declared calendar, every non-sentinel value must be finite, and errors name
the offending file, field or year/day/cell.  :func:`load_annual_stack`
reduces each year file to its annual means as soon as it is read;
:func:`load_dataset` keeps every daily value.

On a large dataset :func:`load_annual_stack`, :func:`validate_dataset` and
:func:`write_dataset` handle one year file per job on forked worker
processes; results, files and the first error raised are those of the
serial loop over the years.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ._forked import forked_map
from ._forked import usable_cpus as _usable_cpus
from .errors import (
    CoverageError,
    DatasetError,
    EmptyDomainError,
    ParameterError,
    ShapeMismatchError,
)
from .gridcore import (
    FIXED360,
    GEOGRAPHIC,
    GREGORIAN,
    METERS,
    TEMPERATURE_UNITS,
    CalendarSpec,
    DailySeriesGrid,
    GridGeometry,
    ScalarField,
    days_in_year,
)

MANIFEST_NAME = "manifest.json"
DATA_DIR = "data"
ELEVATION_NAME = "elevation.csv"

# JSON spelling of calendar kinds.
_CAL_FROM_JSON = {"gregorian": GREGORIAN, "360_day": FIXED360}
_CAL_TO_JSON = {v: k for k, v in _CAL_FROM_JSON.items()}

# A missing-value sentinel must sit outside any plausible temperature in
# either celsius or kelvin.
_TEMP_RANGE = (-150.0, 400.0)

_GEOMETRY_FIELDS = {
    "mode": str, "origin_lat": float, "origin_lon": float, "cell_dlat": float,
    "cell_dlon": float, "nrows": int, "ncols": int,
}
_KINDS = {str: "a string", int: "an integer", float: "a number", list: "a list", dict: "an object"}

RESAMPLE_AREA_WEIGHTED = "area_weighted"
RESAMPLE_NEAREST = "nearest"

# A resampled target cell keeps a value only if valid source cells cover at
# least this fraction of its area.
MIN_COVERAGE = 0.5

# Datasets of fewer daily values than this are read and written in this
# process, larger ones one year file per job on forked workers.  On a 2-vCPU
# host, two workers break even at about 100,000 values of 17 digits when
# reading (200,000 of 4 digits) and below 50,000 when writing.
_FORK_MIN_VALUES = 100_000


def _year_workers(like) -> int:
    """The worker count for a map over the year files of ``like`` (a series
    or a manifest)."""
    values = like.geometry.ncells * sum(days_in_year(like.calendar, y) for y in like.years)
    return _usable_cpus() if values >= _FORK_MIN_VALUES else 1


@dataclass(frozen=True)
class DatasetManifest:
    """Parsed, validated manifest of a GTS dataset directory."""

    variable: str
    units: str
    calendar: CalendarSpec
    geometry: GridGeometry
    missing_value: float
    years: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.units not in TEMPERATURE_UNITS:
            raise DatasetError(f"manifest units must be celsius or kelvin, got {self.units!r}")
        years = tuple(int(y) for y in self.years)
        if not years:
            raise DatasetError("manifest years list is empty")
        if any(b <= a for a, b in zip(years, years[1:])):
            raise DatasetError("manifest years must be strictly increasing")
        object.__setattr__(self, "years", years)
        mv = float(self.missing_value)
        if not np.isfinite(mv):
            raise DatasetError("missing_value must be finite")
        if _TEMP_RANGE[0] <= mv <= _TEMP_RANGE[1]:
            raise DatasetError(
                f"missing_value {mv} lies inside the physical temperature range "
                f"{_TEMP_RANGE}; pick a sentinel outside it"
            )

    def to_json_dict(self) -> dict:
        return {
            "variable": self.variable,
            "units": self.units,
            "calendar": _CAL_TO_JSON[self.calendar.kind],
            "geometry": {key: getattr(self.geometry, key) for key in _GEOMETRY_FIELDS},
            "missing_value": self.missing_value,
            "years": list(self.years),
        }


def _field(doc: dict, key: str, kind: type, where: str = ""):
    """``doc[key]``, checked to be a JSON value of ``kind``; ints pass as floats."""
    if key not in doc:
        raise DatasetError(f"manifest {where}missing field {key!r}")
    value = doc[key]
    try:
        if type(value) is kind or (kind is float and type(value) is int):
            return kind(value)
    except OverflowError:
        pass
    raise DatasetError(f"manifest {where}field {key!r} must be {_KINDS[kind]}, got {value!r}")


def _parse_manifest_dict(doc) -> DatasetManifest:
    if type(doc) is not dict:
        raise DatasetError("manifest must be a JSON object")
    cal = _field(doc, "calendar", str)
    if cal not in _CAL_FROM_JSON:
        raise DatasetError(f"manifest calendar must be 'gregorian' or '360_day', got {cal!r}")
    gdoc = _field(doc, "geometry", dict)
    years = _field(doc, "years", list)
    if any(type(y) is not int for y in years):
        raise DatasetError(f"manifest field 'years' must be a list of integers, got {years!r}")
    try:
        geometry = GridGeometry(
            **{key: _field(gdoc, key, kind, "geometry ") for key, kind in _GEOMETRY_FIELDS.items()}
        )
    except ParameterError as exc:
        raise DatasetError(f"manifest geometry invalid: {exc}") from exc
    return DatasetManifest(
        variable=_field(doc, "variable", str),
        units=_field(doc, "units", str),
        calendar=CalendarSpec(_CAL_FROM_JSON[cal]),
        geometry=geometry,
        missing_value=_field(doc, "missing_value", float),
        years=tuple(years),
    )


def load_manifest(root: str | os.PathLike) -> DatasetManifest:
    """Read and validate ``manifest.json``.  Missing file raises FileNotFoundError."""
    path = Path(root) / MANIFEST_NAME
    try:
        doc = json.loads(path.read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # invalid JSON, too deeply nested, not UTF-8
        raise DatasetError(f"{path}: invalid JSON: {exc}") from exc
    return _parse_manifest_dict(doc)


def _read_grid_csv(
    path: Path, nlines: int, nfields: int, count_fault: Callable, line_name: Callable
) -> np.ndarray:
    """Parse a UTF-8 CSV file of ``nlines`` lines of ``nfields`` values each
    by one :func:`_parse` call.  Only if that fails are the lines, then the
    faulty line's tokens, parsed one by one to name the first fault.
    ``count_fault(got)`` and ``line_name(i)`` word the errors."""
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc}") from None
    if len(lines) != nlines:
        raise DatasetError(count_fault(len(lines)))
    grid = _parse(lines, nfields)
    if grid is not None:
        return grid
    for i, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) != nfields:
            raise DatasetError(f"{line_name(i)}: expected {nfields} values, got {len(parts)}")
        if _parse([line], nfields) is not None:
            continue
        for c, p in enumerate(parts):
            if _parse([p], 1) is None:
                # Only spaces and tabs are trimmed: str.strip() would hide U+001F.
                token = p.strip(" \t")
                raise DatasetError(f"{line_name(i)}, cell {c}: unparseable value {token!r}")
    raise DatasetError(f"{path}: unparseable values")


def _parse(lines: list[str], nfields: int) -> np.ndarray | None:
    """The C reader's array of ``lines`` of ``nfields`` values each, or None.
    Its tokens are ``float()``'s without ``_`` and non-ASCII digits; empty
    lines (which it skips) and U+001F (which it strips) are refused."""
    if not all(lines) or any("\x1f" in line for line in lines):
        return None
    try:
        grid = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return grid if grid.shape == (len(lines), nfields) else None


def _load_year_file(root: Path, year: int, manifest: DatasetManifest) -> np.ndarray:
    path = root / DATA_DIR / f"{year}.csv"
    if not path.exists():
        raise FileNotFoundError(f"missing payload file {path}")
    nrows, ncols = manifest.geometry.shape
    expected_days = days_in_year(manifest.calendar, year)
    cube = _read_grid_csv(
        path,
        expected_days,
        nrows * ncols,
        lambda got: f"year {year}: {got} daily lines, calendar requires {expected_days}",
        lambda day: f"year {year} day {day}",
    ).reshape(expected_days, nrows, ncols)
    missing = cube == manifest.missing_value
    bad = ~np.isfinite(cube) & ~missing
    if bad.any():
        day, r, c = np.argwhere(bad)[0]
        raise DatasetError(
            f"year {year} day {day} cell ({r},{c}): non-finite value that is "
            f"not the missing_value sentinel"
        )
    cube[missing] = np.nan
    return cube


def load_dataset(root: str | os.PathLike) -> DailySeriesGrid:
    """Load a GTS dataset directory into a fully validated in-memory series.

    Cells equal to the manifest's ``missing_value`` become masked (NaN).
    Raises ``DatasetError`` on the first format violation, ``FileNotFoundError``
    when the manifest or a payload file is absent.
    """
    root = Path(root)
    m = load_manifest(root)
    data = {year: _load_year_file(root, year, m) for year in m.years}
    return DailySeriesGrid(m.geometry, m.calendar, m.units, m.years, data, m.variable, m.missing_value)


def validate_dataset(root: str | os.PathLike) -> list[str]:
    """Collect every format violation in a dataset directory.

    Returns an empty list for a well-formed dataset.  Unlike
    :func:`load_dataset` this keeps going after the first problem so the
    report lists all of them.  A missing manifest still raises
    FileNotFoundError (there is nothing to check against).
    """
    root = Path(root)
    try:
        manifest = load_manifest(root)
    except DatasetError as exc:
        return [str(exc)]

    def year_violation(year: int) -> str | None:
        try:
            _valid_sums(_load_year_file(root, year, manifest), year)
        except (DatasetError, FileNotFoundError) as exc:
            return str(exc)
        return None

    found = forked_map(year_violation, manifest.years, _year_workers(manifest))
    violations = [v for v in found if v is not None]
    elev = root / ELEVATION_NAME
    if elev.exists():
        try:
            load_elevation(elev, manifest.geometry, manifest.missing_value)
        except DatasetError as exc:
            violations.append(str(exc))
    return violations


def _write_grid_csv(
    path: str | os.PathLike, values: np.ndarray, missing: np.ndarray, missing_value: float
) -> None:
    """Write a 2-D array as CSV lines of shortest round-trip values (``repr``),
    with the sentinel in place of ``missing`` cells."""
    rows = np.where(missing, missing_value, values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())


def write_dataset(
    series: DailySeriesGrid,
    root: str | os.PathLike,
    elevation: ScalarField | None = None,
) -> None:
    """Serialize a series back to the GTS directory format.

    Values are written with shortest round-trip float formatting, so a
    load/write/load cycle is value-identical.
    """
    root = Path(root)
    manifest = DatasetManifest(
        variable=series.variable or "unknown",
        units=series.units,
        calendar=series.calendar,
        geometry=series.geometry,
        missing_value=series.missing_value,
        years=series.years,
    )
    (root / DATA_DIR).mkdir(parents=True, exist_ok=True)
    with open(root / MANIFEST_NAME, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    mv = series.missing_value

    def write_year(year: int) -> None:
        days = series.year_values(year).reshape(-1, series.geometry.ncells)
        _write_grid_csv(root / DATA_DIR / f"{year}.csv", days, np.isnan(days), mv)

    forked_map(write_year, series.years, _year_workers(series))
    if elevation is not None:
        write_elevation(elevation, root / ELEVATION_NAME, mv)


def write_elevation(elevation: ScalarField, path: str | os.PathLike, missing_value: float) -> None:
    _write_grid_csv(path, elevation.values, ~elevation.mask, missing_value)


def load_elevation(
    path: str | os.PathLike, geometry: GridGeometry, missing_value: float
) -> ScalarField:
    """Read an ``elevation.csv`` grid (meters) against a known geometry."""
    nrows, ncols = geometry.shape
    values = _read_grid_csv(
        Path(path),
        nrows,
        ncols,
        lambda got: f"{path}: expected {nrows} elevation lines, got {got}",
        lambda r: f"{path} line {r}",
    )
    mask = values != missing_value
    bad = ~np.isfinite(values) & mask
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DatasetError(f"{path} cell ({r},{c}): non-finite elevation")
    return ScalarField(geometry, np.where(mask, values, 0.0), mask, METERS)


@dataclass(frozen=True)
class AnnualMeanStack:
    """Per-year annual-mean fields plus the combined validity mask.

    The combined mask marks cells valid in *every* year, which is the domain
    all downstream clustering operates on.
    """

    geometry: GridGeometry
    units: str
    years: tuple[int, ...]
    fields: tuple[ScalarField, ...]
    mask: np.ndarray

    def __post_init__(self) -> None:
        if len(self.fields) != len(self.years):
            raise ParameterError("one field per year required")
        for f in self.fields:
            if f.geometry.shape != self.geometry.shape:
                raise ShapeMismatchError("annual fields must share the stack geometry")
        mask = np.array(self.mask, dtype=bool, copy=True)
        if mask.shape != self.geometry.shape:
            raise ShapeMismatchError("stack mask shape mismatch")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))
        object.__setattr__(self, "fields", tuple(self.fields))

    @property
    def n_years(self) -> int:
        return len(self.years)


def _valid_sums(cube: np.ndarray, year: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell count and sum of the valid (non-NaN) days of one year's daily
    cube.  A sum beyond the float64 range raises DatasetError naming the cell."""
    valid = ~np.isnan(cube)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.where(valid, cube, 0.0).sum(axis=0)
    overflow = ~np.isfinite(sums)
    if overflow.any():
        r, c = np.argwhere(overflow)[0]
        raise DatasetError(f"year {year} cell ({r},{c}): daily values sum beyond the float64 range")
    return valid.sum(axis=0), sums


def _annual_field(cube: np.ndarray, like, min_valid_fraction: float, year: int) -> ScalarField:
    """Per-cell mean of the valid (non-NaN) days of one year's daily cube, on
    the geometry and in the units of ``like`` (a series or a manifest)."""
    counts, sums = _valid_sums(cube, year)
    mask = counts >= min_valid_fraction * cube.shape[0]  # fraction > 0: no 0 count in mask
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=mask)
    return ScalarField(like.geometry, means, mask, like.units)


def annual_mean(
    series: DailySeriesGrid, year: int, min_valid_fraction: float = 1.0
) -> ScalarField:
    """Per-cell arithmetic mean of one year's valid daily values.

    A cell is masked when its fraction of valid days falls below
    ``min_valid_fraction`` (default 1.0: any gap masks the cell).
    """
    if not (0.0 < min_valid_fraction <= 1.0):
        raise ParameterError("min_valid_fraction must be in (0, 1]")
    return _annual_field(series.year_values(year), series, min_valid_fraction, year)


def build_annual_stack(
    series: DailySeriesGrid, min_valid_fraction: float = 1.0
) -> AnnualMeanStack:
    """One annual mean per year; combined mask is the intersection of years."""
    if not series.years:
        raise EmptyDomainError("series has no years")
    fields = tuple(annual_mean(series, y, min_valid_fraction) for y in series.years)
    mask = np.logical_and.reduce([f.mask for f in fields])
    return AnnualMeanStack(series.geometry, series.units, series.years, fields, mask)


def load_annual_stack(
    root: str | os.PathLike, min_valid_fraction: float = 1.0
) -> tuple[DatasetManifest, AnnualMeanStack]:
    """The manifest and ``build_annual_stack(load_dataset(root), min_valid_fraction)``,
    with each year file reduced to its annual field as soon as it is parsed,
    so a process holds one year's daily values at a time.  On a large
    dataset the year files are parsed on forked workers; the error raised
    is the first faulty year's, as in a serial read."""
    if not (0.0 < min_valid_fraction <= 1.0):
        raise ParameterError("min_valid_fraction must be in (0, 1]")
    root = Path(root)
    manifest = load_manifest(root)
    fields = forked_map(
        lambda year: _annual_field(
            _load_year_file(root, year, manifest), manifest, min_valid_fraction, year
        ),
        manifest.years,
        _year_workers(manifest),
    )
    mask = np.logical_and.reduce([f.mask for f in fields])
    return manifest, AnnualMeanStack(manifest.geometry, manifest.units, manifest.years, fields, mask)


def _overlaps(dst_edges: np.ndarray, src_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ndst, nsrc) interval-overlap lengths between two edge vectors, and
    the center of each interval pair's overlap."""
    lo = np.maximum(dst_edges[:-1, None], src_edges[None, :-1])
    hi = np.minimum(dst_edges[1:, None], src_edges[None, 1:])
    return np.clip(hi - lo, 0.0, None), 0.5 * (lo + hi)


def _lat_weights(dst_edges: np.ndarray, src_edges: np.ndarray, geographic: bool) -> np.ndarray:
    """Row-overlap weights; geographic mode scales each overlap strip by
    cos(latitude of the strip center)."""
    ov, centers = _overlaps(dst_edges, src_edges)
    if not geographic:
        return ov
    return ov * np.maximum(np.cos(np.radians(np.where(ov > 0, centers, 0.0))), 0.0)


def resample(field: ScalarField, target: GridGeometry, method: str = RESAMPLE_AREA_WEIGHTED) -> ScalarField:
    """Regrid a field onto a target geometry.

    ``area_weighted``: each target cell becomes the overlap-area-weighted
    mean of intersecting valid source cells (geographic mode weights each
    overlap rectangle by the cosine of its center latitude).  ``nearest``:
    the value of the source cell containing the target cell center.  A target
    cell is masked when valid source coverage of its area is below 0.5.
    """
    src = field.geometry
    if src.mode != target.mode:
        raise ParameterError(f"grid modes differ: {src.mode} vs {target.mode}")
    if method not in (RESAMPLE_AREA_WEIGHTED, RESAMPLE_NEAREST):
        raise ParameterError(f"unknown resampling method {method!r}")

    # Bounding boxes must intersect at all.
    if (
        src.lat_edges()[-1] <= target.lat_edges()[0]
        or target.lat_edges()[-1] <= src.lat_edges()[0]
        or src.lon_edges()[-1] <= target.lon_edges()[0]
        or target.lon_edges()[-1] <= src.lon_edges()[0]
    ):
        raise CoverageError("source and target geometries are spatially disjoint")

    if method == RESAMPLE_NEAREST:
        return _resample_nearest(field, target)
    return _resample_area_weighted(field, target)


def _resample_nearest(field: ScalarField, target: GridGeometry) -> ScalarField:
    src = field.geometry
    rows = np.floor(
        (target.lat_centers() - (src.origin_lat - 0.5 * src.cell_dlat)) / src.cell_dlat
    ).astype(int)
    cols = np.floor(
        (target.lon_centers() - (src.origin_lon - 0.5 * src.cell_dlon)) / src.cell_dlon
    ).astype(int)
    row_ok = (rows >= 0) & (rows < src.nrows)
    col_ok = (cols >= 0) & (cols < src.ncols)
    r_idx = np.clip(rows, 0, src.nrows - 1)
    c_idx = np.clip(cols, 0, src.ncols - 1)
    values = field.values[np.ix_(r_idx, c_idx)]
    mask = field.mask[np.ix_(r_idx, c_idx)] & row_ok[:, None] & col_ok[None, :]
    return ScalarField(target, np.where(mask, values, 0.0), mask, field.units)


def _resample_area_weighted(field: ScalarField, target: GridGeometry) -> ScalarField:
    src = field.geometry
    geographic = src.mode == GEOGRAPHIC
    w_lat = _lat_weights(target.lat_edges(), src.lat_edges(), geographic)  # (Rt, Rs)
    w_lon = _overlaps(target.lon_edges(), src.lon_edges())[0]  # (Ct, Cs)

    valid = field.mask.astype(np.float64)
    vals = np.where(field.mask, field.values, 0.0)
    # einsum keeps the reduction order fixed (no BLAS dispatch).
    num = np.einsum("ir,rc,jc->ij", w_lat, vals * valid, w_lon, optimize=False)
    den = np.einsum("ir,rc,jc->ij", w_lat, valid, w_lon, optimize=False)

    if geographic:
        cell_lat_area = target.cell_dlat * np.maximum(
            np.cos(np.radians(target.lat_centers())), 0.0
        )
    else:
        cell_lat_area = np.full(target.nrows, target.cell_dlat)
    area = cell_lat_area[:, None] * target.cell_dlon

    coverage = np.divide(den, area, out=np.zeros_like(den), where=area > 0)
    mask = coverage >= MIN_COVERAGE
    out = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return ScalarField(target, np.where(mask, out, 0.0), mask, field.units)
