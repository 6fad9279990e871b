"""Synthetic planted-structure datasets for demos and verification.

The generator plants a two-zone temperature pattern on a rectangular grid:

- the left columns form a warm zone around peak cell A, the right columns a
  cooler zone around peak cell B, with an offset gap between the sides;
- each side carries a cone ("tent") of relief sloping away from its peak, so
  every non-peak cell has an uphill neighbor toward its own peak;
- peak A recurs at the exact same cell every year; peak B hits its exact
  cell only in a chosen subset of years and wanders to an 8-adjacent cell in
  the others (a small spike pins the yearly argmax);
- interannual noise is a spatially smooth field with standard deviation
  0.1x the tent relief, mimicking large-scale anomalies without spawning
  spurious local extrema.

Ground truth is the two-side partition, which both clustering routes are
expected to recover.  ``write_planted_dataset`` materializes the same fields
as an on-disk daily dataset (a zero-mean seasonal cycle is added so annual
means reproduce the planted fields).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import ParameterError
from .gridcore import (
    CELSIUS,
    FIXED360,
    GEOGRAPHIC,
    CalendarSpec,
    CellIndex,
    DailySeriesGrid,
    GridGeometry,
    ScalarField,
    days_in_year,
)
from .ingest import AnnualMeanStack, write_dataset

OFFSET_WARM = 30.0
OFFSET_COOL = 10.0
TENT_RELIEF = 10.0
PEAK_SPIKE = 2.0
NOISE_SIGMA = 0.1 * TENT_RELIEF
SEASONAL_AMPLITUDE = 5.0
MISSING_VALUE = -999.0

_JITTER_OFFSETS = ((0, 1), (1, 0), (0, -1), (-1, 0))


@dataclass(frozen=True)
class PlantedTruth:
    """Everything a test needs to verify recovery of the planted structure."""

    peak_a: CellIndex
    peak_b: CellIndex
    jitter_cells: tuple[CellIndex, ...]
    b_exact_year_indices: tuple[int, ...]
    zone_labels: np.ndarray  # 0 = warm side, 1 = cool side
    n_years: int
    relief: float
    noise_sigma: float


def _tent(shape: tuple[int, int], center: CellIndex, side: np.ndarray) -> np.ndarray:
    rr, cc = np.indices(shape)
    dist = np.hypot(rr - center.row, cc - center.col)
    dmax = dist[side].max()
    slope = TENT_RELIEF / (dmax + 0.5)
    return np.where(side, np.maximum(0.0, TENT_RELIEF - slope * dist), 0.0)


def _smooth_noise(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    raw = rng.standard_normal(shape)
    smooth = gaussian_filter(raw, sigma=max(shape) / 3.0, mode="reflect")
    smooth -= smooth.mean()
    return smooth / smooth.std() * NOISE_SIGMA


def make_planted_stack(
    nrows: int = 31,
    ncols: int = 31,
    n_years: int = 31,
    b_exact: int = 15,
    seed: int = 1234,
    start_year: int = 1969,
    mask: np.ndarray | None = None,
) -> tuple[AnnualMeanStack, PlantedTruth]:
    """Build an in-memory annual-mean stack with the planted two-zone pattern."""
    if nrows < 5 or ncols < 8:
        raise ParameterError("planted grid needs at least 5 rows and 8 columns")
    if not 0 <= b_exact <= n_years:
        raise ParameterError("b_exact must be within the year count")
    shape = (nrows, ncols)
    split = ncols // 2
    cols = np.arange(ncols)
    side_a = np.broadcast_to(cols < split, shape)
    side_b = ~side_a
    peak_a = CellIndex(nrows // 2, split // 2)
    peak_b = CellIndex(nrows // 2, split + (ncols - split) // 2)

    base = np.where(side_a, OFFSET_WARM, OFFSET_COOL)
    base = base + _tent(shape, peak_a, side_a) + _tent(shape, peak_b, side_b)

    # Peak B hits its exact cell in even-indexed years when they suffice,
    # else in the first b_exact years; the rest cycle its 4-neighbors.
    even = [i for i in range(n_years) if i % 2 == 0]
    exact_years = tuple(even[:b_exact]) if len(even) >= b_exact else tuple(range(b_exact))
    geometry = GridGeometry(
        GEOGRAPHIC, -((nrows - 1) // 2) * 1.0, 68.0, 1.0, 1.0, nrows, ncols
    )
    rng = np.random.default_rng(seed)
    jitter_used: list[CellIndex] = []
    fields = []
    years = tuple(start_year + i for i in range(n_years))
    jitter_i = 0
    for i in range(n_years):
        values = base + _smooth_noise(rng, shape)
        values[peak_a] += PEAK_SPIKE
        if i in exact_years:
            b_cell = peak_b
        else:
            dr, dc = _JITTER_OFFSETS[jitter_i % len(_JITTER_OFFSETS)]
            jitter_i += 1
            b_cell = CellIndex(peak_b.row + dr, peak_b.col + dc)
            if b_cell not in jitter_used:
                jitter_used.append(b_cell)
        values[b_cell] += PEAK_SPIKE
        fields.append(ScalarField(
            geometry,
            np.where(mask, values, 0.0) if mask is not None else values,
            mask,
            CELSIUS,
        ))
    combined = np.ones(shape, dtype=bool) if mask is None else np.array(mask, dtype=bool)
    stack = AnnualMeanStack(geometry, CELSIUS, years, tuple(fields), combined)
    truth = PlantedTruth(
        peak_a=peak_a,
        peak_b=peak_b,
        jitter_cells=tuple(sorted(jitter_used)),
        b_exact_year_indices=exact_years,
        zone_labels=np.where(side_a, 0, 1).astype(np.int32),
        n_years=n_years,
        relief=TENT_RELIEF,
        noise_sigma=NOISE_SIGMA,
    )
    return stack, truth


def planted_elevation(truth: PlantedTruth, stack: AnnualMeanStack) -> ScalarField:
    """Terrain matching the planted zones: a high warm side, low cool side."""
    warm = truth.zone_labels == 0
    rr, cc = np.indices(truth.zone_labels.shape)
    ramp = 20.0 * (rr + cc) / (rr.max() + cc.max())
    elev = np.where(warm, 2400.0, 650.0) + ramp
    return ScalarField(stack.geometry, np.where(stack.mask, elev, 0.0), stack.mask, "meters")


def write_planted_dataset(
    root: str | Path,
    nrows: int = 24,
    ncols: int = 24,
    n_years: int = 6,
    b_exact: int = 3,
    seed: int = 77,
    start_year: int = 1990,
    variable: str = "tmax",
) -> PlantedTruth:
    """Write a GTS daily dataset whose annual means carry the planted pattern.

    Daily values are the planted annual field plus a cosine seasonal cycle
    that sums to zero over each year, on a 360-day calendar with the 2x2
    corner masked, alongside a planted ``elevation.csv``.
    """
    mask = np.ones((nrows, ncols), dtype=bool)
    mask[:2, :2] = False
    stack, truth = make_planted_stack(
        nrows, ncols, n_years, b_exact, seed, start_year, mask=mask
    )
    # Minimum-temperature variables plant the same structure upside down, so
    # the peaks recur as local minima (matching 'auto' orientation).
    flip = "min" in variable.lower()
    calendar = CalendarSpec(FIXED360)
    data = {}
    for year, field in zip(stack.years, stack.fields):
        ndays = days_in_year(calendar, year)
        cycle = SEASONAL_AMPLITUDE * np.cos(2.0 * np.pi * (np.arange(ndays) + 0.5) / ndays)
        annual = 20.0 - field.values if flip else field.values
        daily = annual[None, :, :] + cycle[:, None, None]
        daily = np.where(field.mask[None, :, :], daily, np.nan)
        data[year] = daily
    series = DailySeriesGrid(
        geometry=stack.geometry,
        calendar=calendar,
        units=CELSIUS,
        years=stack.years,
        data=data,
        variable=variable,
        missing_value=MISSING_VALUE,
    )
    write_dataset(series, root, elevation=planted_elevation(truth, stack))
    return truth


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m gridclust.synth",
        description="Write a synthetic planted-structure demo dataset (GTS format).",
    )
    parser.add_argument("out", help="output dataset directory")
    parser.add_argument("--rows", type=int, default=24)
    parser.add_argument("--cols", type=int, default=24)
    parser.add_argument("--years", type=int, default=6)
    parser.add_argument("--b-exact", type=int, default=3, help="years peak B hits its exact cell")
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--start-year", type=int, default=1990)
    parser.add_argument("--variable", default="tmax")
    args = parser.parse_args(argv)
    truth = write_planted_dataset(
        args.out,
        nrows=args.rows,
        ncols=args.cols,
        n_years=args.years,
        b_exact=args.b_exact,
        seed=args.seed,
        start_year=args.start_year,
        variable=args.variable,
    )
    print(f"wrote planted dataset to {args.out}")
    print(f"  peak A at {tuple(truth.peak_a)} (recurs {truth.n_years}/{truth.n_years} years)")
    print(
        f"  peak B at {tuple(truth.peak_b)} "
        f"(exact cell {len(truth.b_exact_year_indices)}/{truth.n_years} years)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
