import numpy as np
import pytest

from gridclust.errors import ParameterError
from gridclust.gridcore import ZoneMap
from gridclust.render import cells_svg, zone_map_svg

from conftest import planar_geom


@pytest.mark.parametrize("cell_px", [0, -3])
def test_cell_size_below_one_pixel_rejected(cell_px):
    with pytest.raises(ParameterError, match="cell_px must be >= 1"):
        cells_svg((1, 2), np.array([[0, 1]]), np.array([4]), cell_px)
    with pytest.raises(ParameterError, match="cell_px must be >= 1"):
        zone_map_svg(ZoneMap(planar_geom(1, 2), [[-1, 4]]), cell_px)


def test_one_pixel_cells():
    svg = cells_svg((2, 3), np.array([[0, 1]]), np.array([4]), 1)
    assert 'width="3" height="2"' in svg
    assert '<rect x="1" y="1" width="1" height="1"' in svg
