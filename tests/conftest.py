import numpy as np
import pytest
from hypothesis import Phase, settings

from gridclust.gridcore import (
    CELSIUS,
    DIMENSIONLESS,
    PLANAR,
    GridGeometry,
    ScalarField,
    neighbors8,
)
from gridclust.synth import write_planted_dataset

# Property tests draw the same examples on every run and keep no example
# database, so the suite is reproducible.  Hypothesis still writes
# .hypothesis/constants/ where it runs; .gitignore covers it.  The deep
# profile (pytest --hypothesis-profile=gridclust-deep) draws five times as
# many examples, as reproducibly.  The mutants profile (tests/mutants.py)
# draws the default examples but does not shrink a failure it finds.
settings.register_profile("gridclust", derandomize=True, database=None, deadline=None)
settings.register_profile("gridclust-deep", settings.get_profile("gridclust"), max_examples=500)
settings.register_profile(
    "gridclust-mutants", settings.get_profile("gridclust"), phases=(Phase.explicit, Phase.generate)
)
settings.load_profile("gridclust")


def planar_geom(nrows, ncols, cell=1.0):
    return GridGeometry(PLANAR, 0.0, 0.0, cell, cell, nrows, ncols)


def make_field(values, mask=None, units=DIMENSIONLESS, geometry=None):
    values = np.asarray(values, dtype=float)
    if geometry is None:
        geometry = planar_geom(*values.shape)
    return ScalarField(geometry, values, mask, units)


def brute_force_foci(field, orientation):
    """Independent plateau-aware focus detector (set-based, no flooding)."""
    values, mask = field.values, field.mask
    nrows, ncols = values.shape
    total = int(mask.sum())
    better = (lambda a, b: a > b) if orientation == "maxima" else (lambda a, b: a < b)
    seen = set()
    out = []
    for r in range(nrows):
        for c in range(ncols):
            if not mask[r, c] or (r, c) in seen:
                continue
            comp = {(r, c)}
            frontier = [(r, c)]
            while frontier:
                cur = frontier.pop()
                for nb in neighbors8(field.geometry, mask, cur):
                    if values[nb] == values[r, c] and tuple(nb) not in comp:
                        comp.add(tuple(nb))
                        frontier.append(tuple(nb))
            seen |= comp
            if len(comp) == total:
                continue
            boundary_ok = True
            for cell in comp:
                for nb in neighbors8(field.geometry, mask, cell):
                    if tuple(nb) in comp:
                        continue
                    if not better(values[r, c], values[nb]):
                        boundary_ok = False
            if boundary_ok:
                out.append(min(comp))
    return sorted(out)


@pytest.fixture(scope="session")
def demo_dataset(tmp_path_factory):
    """The bundled synthetic demo: 24x24 grid, 6 fixed360 years, two planted
    peaks (A exact 6/6 years, B exact 3/6), masked 2x2 corner, elevation."""
    root = tmp_path_factory.mktemp("demo") / "dataset"
    truth = write_planted_dataset(root)
    return root, truth


@pytest.fixture()
def tiny_series():
    """Two fixed360 years of 2x3 daily data with one always-masked cell."""
    from gridclust.gridcore import FIXED360, CalendarSpec, DailySeriesGrid

    geom = planar_geom(2, 3)
    data = {}
    for i, year in enumerate((1995, 1996)):
        arr = np.full((360, 2, 3), 10.0 + i)
        arr[:, 1, 2] = np.nan
        data[year] = arr
    return DailySeriesGrid(
        geometry=geom,
        calendar=CalendarSpec(FIXED360),
        units=CELSIUS,
        years=(1995, 1996),
        data=data,
        variable="tmax",
    )
