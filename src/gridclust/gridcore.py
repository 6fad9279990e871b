"""Grid geometry, masks, calendars, 8-connected neighborhoods, units, slope.

Conventions used throughout the package:

- Cells are addressed row-major as ``(row, col)``. ``origin_lat``/``origin_lon``
  are the *center* coordinates of cell ``(0, 0)``; row ``r`` is centered at
  ``origin_lat + r * cell_dlat`` (latitude increases with row index) and
  column ``c`` at ``origin_lon + c * cell_dlon``.
- Mask arrays mark validity: ``True`` is a valid cell, ``False`` is missing.
  Masked cells are never read by numeric operations.
- All container types are immutable after construction (their arrays are
  frozen), so they are safe to share across threads.
"""

from __future__ import annotations

import calendar as _pycalendar
import datetime as _dt
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    BoundsError,
    GridSizeError,
    ParameterError,
    ShapeMismatchError,
    UnitError,
    YearLookupError,
)

GEOGRAPHIC = "geographic"
PLANAR = "planar"
GRID_MODES = frozenset({GEOGRAPHIC, PLANAR})

CELSIUS = "celsius"
KELVIN = "kelvin"
METERS = "meters"
DEGREES_SLOPE = "degrees_slope"
DIMENSIONLESS = "dimensionless"
UNITS = frozenset({CELSIUS, KELVIN, METERS, DEGREES_SLOPE, DIMENSIONLESS})
TEMPERATURE_UNITS = frozenset({CELSIUS, KELVIN})

GREGORIAN = "gregorian"
FIXED360 = "fixed360"
CALENDAR_KINDS = frozenset({GREGORIAN, FIXED360})

KELVIN_OFFSET = 273.15

# Spherical-earth conversion (radius 6371 km): meters per degree of latitude.
METERS_PER_DEGREE = 111_195.0

# 8-connected neighbor offsets in row-major order:
# (-1,-1) (-1,0) (-1,+1) / (0,-1) (0,+1) / (+1,-1) (+1,0) (+1,+1)
NEIGHBOR_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


class CellIndex(NamedTuple):
    """Row-major cell address within a grid."""

    row: int
    col: int


@dataclass(frozen=True)
class GridGeometry:
    """Regular rectangular grid, geographic (degrees) or planar (meters).

    Attributes
    ----------
    mode : str
        ``"geographic"`` (cell sizes in degrees) or ``"planar"`` (meters).
    origin_lat, origin_lon : float
        Center coordinates of cell (0, 0).
    cell_dlat, cell_dlon : float
        Positive cell extent along rows / columns.
    nrows, ncols : int
        Grid dimensions.
    """

    mode: str
    origin_lat: float
    origin_lon: float
    cell_dlat: float
    cell_dlon: float
    nrows: int
    ncols: int

    def __post_init__(self) -> None:
        if self.mode not in GRID_MODES:
            raise ParameterError(f"unknown grid mode {self.mode!r}")
        for name in ("origin_lat", "origin_lon", "cell_dlat", "cell_dlon"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.cell_dlat > 0 and self.cell_dlon > 0):
            raise ParameterError("cell sizes must be positive")
        if self.nrows < 1 or self.ncols < 1:
            raise ParameterError("grid must have at least one row and column")
        if self.mode == GEOGRAPHIC:
            lat_last = self.origin_lat + (self.nrows - 1) * self.cell_dlat
            if not (-90.0 <= self.origin_lat <= 90.0 and -90.0 <= lat_last <= 90.0):
                raise ParameterError(
                    "geographic cell centers must lie within [-90, 90] latitude"
                )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def ncells(self) -> int:
        return self.nrows * self.ncols

    def contains(self, row: int, col: int) -> bool:
        return 0 <= row < self.nrows and 0 <= col < self.ncols

    def lat_centers(self) -> np.ndarray:
        return self.origin_lat + self.cell_dlat * np.arange(self.nrows)

    def lon_centers(self) -> np.ndarray:
        return self.origin_lon + self.cell_dlon * np.arange(self.ncols)

    def lat_edges(self) -> np.ndarray:
        """nrows+1 cell boundaries along the row axis."""
        return self.origin_lat + self.cell_dlat * (np.arange(self.nrows + 1) - 0.5)

    def lon_edges(self) -> np.ndarray:
        return self.origin_lon + self.cell_dlon * (np.arange(self.ncols + 1) - 0.5)


def as_integer(name: str, value) -> int:
    """``value`` as a Python int, or :class:`ParameterError` naming ``name``
    unless ``operator.index`` accepts it (numpy integers do, floats do not)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_vector(name: str, values, dtype: type) -> np.ndarray:
    """A frozen 1-D ``dtype`` copy of ``values``, or :class:`ParameterError`
    unless their numpy dtype is a number type that casts to ``dtype`` within
    its kind (an unsigned into a signed integer; bool never) and the values fit."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if arr.ndim != 1 or arr.size and (kind == "b" or not np.can_cast(arr.dtype, dtype, "same_kind")):
        raise ParameterError(
            f"{name} must be a 1-D array of {np.dtype(dtype)}, got {arr.dtype} of shape {arr.shape}"
        )
    out = arr.astype(dtype)
    if kind == "u" and (out < 0).any():
        raise ParameterError(f"{name} must fit in {np.dtype(dtype)}")
    return _freeze(out)


def _as_values(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.shape != shape:
        raise ShapeMismatchError(f"values shape {arr.shape} != grid shape {shape}")
    return _freeze(arr)


def _as_mask(mask, shape) -> np.ndarray:
    if mask is None:
        arr = np.ones(shape, dtype=bool)
    else:
        arr = np.array(mask, dtype=bool, copy=True)
        if arr.shape != shape:
            raise ShapeMismatchError(f"mask shape {arr.shape} != grid shape {shape}")
    return _freeze(arr)


@dataclass(frozen=True)
class ScalarField:
    """One 2-D grid of values with geometry, units and a validity mask."""

    geometry: GridGeometry
    values: np.ndarray
    mask: np.ndarray = None  # type: ignore[assignment]
    units: str = DIMENSIONLESS

    def __post_init__(self) -> None:
        shape = self.geometry.shape
        object.__setattr__(self, "values", _as_values(self.values, shape))
        object.__setattr__(self, "mask", _as_mask(self.mask, shape))
        if self.units not in UNITS:
            raise UnitError(f"unknown units {self.units!r}")
        if not np.all(np.isfinite(self.values[self.mask])):
            raise ParameterError("unmasked values must be finite")


@dataclass(frozen=True)
class CalendarSpec:
    """Calendar used to interpret daily layers: gregorian or fixed 360-day."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in CALENDAR_KINDS:
            raise ParameterError(f"unknown calendar kind {self.kind!r}")


def days_in_year(calendar: CalendarSpec, year: int) -> int:
    """Number of daily layers a year carries under the calendar.

    fixed360 years always have 360 days (twelve 30-day months); gregorian
    years have 366 when leap by the standard rule, else 365.
    """
    if calendar.kind == FIXED360:
        return 360
    return 366 if _pycalendar.isleap(year) else 365


def ordinal_to_month_day(calendar: CalendarSpec, year: int, ordinal: int) -> tuple[int, int]:
    """Decompose a 0-based day-of-year ordinal into (month, day)."""
    ndays = days_in_year(calendar, year)
    if not 0 <= ordinal < ndays:
        raise ParameterError(f"ordinal {ordinal} out of range for year {year}")
    if calendar.kind == FIXED360:
        return ordinal // 30 + 1, ordinal % 30 + 1
    date = _dt.date(year, 1, 1) + _dt.timedelta(days=ordinal)
    return date.month, date.day


def month_day_to_ordinal(calendar: CalendarSpec, year: int, month: int, day: int) -> int:
    """Inverse of :func:`ordinal_to_month_day`."""
    if calendar.kind == FIXED360:
        if not (1 <= month <= 12 and 1 <= day <= 30):
            raise ParameterError(f"invalid fixed360 date {year}-{month:02d}-{day:02d}")
        return (month - 1) * 30 + (day - 1)
    return (_dt.date(year, month, day) - _dt.date(year, 1, 1)).days


@dataclass(frozen=True)
class DailySeriesGrid:
    """A multi-year stack of daily layers under a declared calendar.

    ``data`` maps each year to a float array of shape ``(ndays, nrows, ncols)``
    in which missing cells hold NaN.  Per-year day counts must match the
    calendar.  ``variable`` and ``missing_value`` carry dataset metadata so a
    loaded series can be re-serialized faithfully.
    """

    geometry: GridGeometry
    calendar: CalendarSpec
    units: str
    years: tuple[int, ...]
    data: Mapping[int, np.ndarray]
    variable: str = ""
    missing_value: float = -999.0

    def __post_init__(self) -> None:
        if self.units not in TEMPERATURE_UNITS:
            raise UnitError(f"series units must be a temperature unit, got {self.units!r}")
        years = tuple(int(y) for y in self.years)
        if any(b <= a for a, b in zip(years, years[1:])):
            raise ParameterError("years must be strictly increasing")
        object.__setattr__(self, "years", years)
        data = {}
        for year in years:
            if year not in self.data:
                raise ParameterError(f"missing daily layers for year {year}")
            arr = np.array(self.data[year], dtype=np.float64, copy=True)
            expected = days_in_year(self.calendar, year)
            if arr.ndim != 3 or arr.shape[1:] != self.geometry.shape:
                raise ShapeMismatchError(
                    f"year {year}: layer shape {arr.shape} does not match grid "
                    f"{self.geometry.shape}"
                )
            if arr.shape[0] != expected:
                raise ParameterError(
                    f"year {year}: {arr.shape[0]} daily layers, calendar requires {expected}"
                )
            data[year] = _freeze(arr)
        object.__setattr__(self, "data", data)

    def year_values(self, year: int) -> np.ndarray:
        try:
            return self.data[year]
        except KeyError:
            raise YearLookupError(f"year {year} not in series") from None


class CellTable(Mapping[int, CellIndex]):
    """Labels ``0..n-1`` mapped to the cells ``(rows[i], cols[i])`` of two
    integer arrays, kept as frozen int64 copies; each ``CellIndex`` is built
    only when it is read."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows, cols) -> None:
        self.rows, self.cols = _as_vector("rows", rows, np.int64), _as_vector("cols", cols, np.int64)
        if self.rows.shape != self.cols.shape:
            raise ShapeMismatchError(f"{self.rows.size} rows != {self.cols.size} cols")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(range(len(self.rows)))

    def __getitem__(self, label) -> CellIndex:
        if not (isinstance(label, (int, np.integer)) and 0 <= label < len(self.rows)):
            raise KeyError(label)
        return CellIndex(int(self.rows[label]), int(self.cols[label]))

    def __repr__(self) -> str:
        return f"CellTable({dict(self)!r})"


@dataclass(frozen=True)
class ZoneMap:
    """Per-cell integer zone/cluster labels over a grid.

    ``labels`` holds -1 for unlabeled (masked or unreached) cells.  The
    anchor table maps each label to the cell that seeded it; watershed maps
    guarantee that each anchor carries its own label, consensus maps record a
    representative member per core.  A :class:`CellTable` is kept as given;
    any other mapping is copied into a dict of ``CellIndex`` values, its
    labels read by :func:`as_integer`; an anchor that is no pair raises.
    """

    geometry: GridGeometry
    labels: np.ndarray
    anchors: Mapping[int, CellIndex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = np.array(self.labels, dtype=np.int32, copy=True)
        if arr.shape != self.geometry.shape:
            raise ShapeMismatchError(
                f"labels shape {arr.shape} != grid shape {self.geometry.shape}"
            )
        if arr.size and arr.min() < -1:
            raise ParameterError("labels must be >= -1")
        object.__setattr__(self, "labels", _freeze(arr))
        if isinstance(self.anchors, CellTable):
            return
        anchors = {}
        for k, v in dict(self.anchors).items():
            label = as_integer("anchor label", k)
            try:
                anchors[label] = v if type(v) is CellIndex else CellIndex(*v)
            except TypeError:
                raise ParameterError(f"anchor {label} must be a (row, col) pair, got {v!r}") from None
        object.__setattr__(self, "anchors", anchors)

    def present_labels(self) -> list[int]:
        # With return_counts, np.unique does not import numpy.ma (numpy 2.4).
        return np.unique(self.labels[self.labels >= 0], return_counts=True)[0].tolist()


def neighbors8(
    geometry: GridGeometry, mask: np.ndarray | None, cell: CellIndex | tuple[int, int]
) -> list[CellIndex]:
    """In-bounds, unmasked cells among the 8 surrounding a cell.

    Returned in row-major ring order (NW, N, NE, W, E, SW, S, SE) with
    out-of-bounds or masked entries omitted.  ``mask=None`` treats every cell
    as valid.
    """
    row, col = int(cell[0]), int(cell[1])
    if not geometry.contains(row, col):
        raise BoundsError(f"cell ({row}, {col}) outside {geometry.nrows}x{geometry.ncols} grid")
    out = []
    for dr, dc in NEIGHBOR_OFFSETS:
        r, c = row + dr, col + dc
        if not geometry.contains(r, c):
            continue
        if mask is not None and not mask[r, c]:
            continue
        out.append(CellIndex(r, c))
    return out


def to_celsius(field: ScalarField) -> ScalarField:
    """Convert a temperature field to Celsius; Celsius input is returned unchanged."""
    if field.units == CELSIUS:
        return field
    if field.units != KELVIN:
        raise UnitError(f"cannot convert units {field.units!r} to celsius")
    values = field.values - KELVIN_OFFSET
    # Masked cells may hold non-finite junk; park them on the sentinel-free 0.
    values = np.where(field.mask, values, 0.0)
    return ScalarField(field.geometry, values, field.mask, CELSIUS)


def _cell_sizes_meters(geometry: GridGeometry) -> tuple[np.ndarray, float]:
    """(per-row east-west cell size, north-south cell size), both in meters."""
    if geometry.mode == PLANAR:
        dx = np.full(geometry.nrows, geometry.cell_dlon, dtype=np.float64)
        return dx, float(geometry.cell_dlat)
    lats = np.radians(geometry.lat_centers())
    dx = METERS_PER_DEGREE * geometry.cell_dlon * np.cos(lats)
    return dx, METERS_PER_DEGREE * geometry.cell_dlat


def slope_field(elevation: ScalarField) -> ScalarField:
    """Terrain slope in degrees from an elevation grid via the Horn 3x3 stencil.

    Output cells are masked wherever any of the nine stencil members is
    masked or out of bounds (so the outer ring is always masked).  In
    geographic mode cell sizes are converted to meters with 111,195 m/degree
    of latitude and 111,195*cos(latitude) m/degree of longitude.
    """
    if elevation.units != METERS:
        raise UnitError(f"slope_field requires meters, got {elevation.units!r}")
    geom = elevation.geometry
    if geom.nrows < 3 or geom.ncols < 3:
        raise GridSizeError("slope stencil needs a grid of at least 3x3")

    z = np.where(elevation.mask, elevation.values, 0.0)
    m = elevation.mask
    # 3x3 window views around each interior cell.
    a, b, c = z[:-2, :-2], z[:-2, 1:-1], z[:-2, 2:]
    d, f = z[1:-1, :-2], z[1:-1, 2:]
    g, h, i = z[2:, :-2], z[2:, 1:-1], z[2:, 2:]
    complete = (
        m[:-2, :-2] & m[:-2, 1:-1] & m[:-2, 2:]
        & m[1:-1, :-2] & m[1:-1, 1:-1] & m[1:-1, 2:]
        & m[2:, :-2] & m[2:, 1:-1] & m[2:, 2:]
    )

    dx_rows, dy = _cell_sizes_meters(geom)
    dx = dx_rows[1:-1][:, None]
    dzdx = ((c + 2.0 * f + i) - (a + 2.0 * d + g)) / (8.0 * dx)
    dzdy = ((g + 2.0 * h + i) - (a + 2.0 * b + c)) / (8.0 * dy)
    slope = np.degrees(np.arctan(np.hypot(dzdx, dzdy)))

    out = np.zeros(geom.shape, dtype=np.float64)
    out_mask = np.zeros(geom.shape, dtype=bool)
    out[1:-1, 1:-1] = np.where(complete, slope, 0.0)
    out_mask[1:-1, 1:-1] = complete
    return ScalarField(geom, out, out_mask, DEGREES_SLOPE)
