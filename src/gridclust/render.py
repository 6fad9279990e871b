"""Dependency-free SVG emitters for zone maps and cluster scatter charts.

Colors come from a fixed 16-entry categorical palette keyed by
``label % 16`` so re-renders of the same labeling are directly comparable.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .errors import ParameterError
from .gridcore import ZoneMap

PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2",
    "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
    "#9c755f", "#bab0ac", "#1f77b4", "#ff7f0e",
    "#2ca02c", "#d62728", "#9467bd", "#8c564b",
)
UNLABELED_FILL = "#e8e8e8"

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def color_for(label: int) -> str:
    return PALETTE[label % len(PALETTE)]


def zone_map_svg(zone_map: ZoneMap, cell_px: int = 12) -> str:
    """Render a label grid; row 0 sits at the bottom (northward rows go up)."""
    labels = zone_map.labels
    rows, cols = np.nonzero(labels >= 0)  # row-major order
    return cells_svg(
        zone_map.geometry.shape, np.column_stack([rows, cols]), labels[rows, cols], cell_px
    )


def cells_svg(
    shape: tuple[int, int], cells: np.ndarray, labels: np.ndarray, cell_px: int = 12
) -> str:
    """Render labelled ``(row, col)`` cells on a ``shape`` grid, in the given
    order; the rest of the grid is drawn as unlabelled."""
    if cell_px < 1:
        raise ParameterError(f"cell_px must be >= 1, got {cell_px}")
    nrows, ncols = shape
    width, height = ncols * cell_px, nrows * cell_px
    parts = [
        _HEADER,
        f"<!-- gridclust {__version__} -->\n",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n',
        f'<rect width="{width}" height="{height}" fill="{UNLABELED_FILL}"/>\n',
    ]
    for (r, c), lab in zip(cells.tolist(), labels.tolist()):
        parts.append(
            f'<rect x="{c * cell_px}" y="{(nrows - 1 - r) * cell_px}" width="{cell_px}" '
            f'height="{cell_px}" fill="{color_for(lab)}"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def scatter_svg(
    series: list[tuple[str, list[tuple[float, float, str]]]],
    xlabel: str,
    ylabel: str,
    size: int = 480,
) -> str:
    """Scatter chart of (x, y, point label) series with a small legend."""
    margin = 56
    plot = size - 2 * margin
    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmin, xmax = xmin - 1.0, xmax + 1.0
    if ymax == ymin:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    pad_x = 0.05 * (xmax - xmin)
    pad_y = 0.05 * (ymax - ymin)
    xmin, xmax = xmin - pad_x, xmax + pad_x
    ymin, ymax = ymin - pad_y, ymax + pad_y

    def px(x: float) -> float:
        return margin + plot * (x - xmin) / (xmax - xmin)

    def py(y: float) -> float:
        return size - margin - plot * (y - ymin) / (ymax - ymin)

    parts = [
        _HEADER,
        f"<!-- gridclust {__version__} -->\n",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}" font-family="sans-serif" font-size="11">\n',
        f'<rect width="{size}" height="{size}" fill="white"/>\n',
        f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
        f'fill="none" stroke="#555"/>\n',
    ]
    for t in np.linspace(xmin, xmax, 5):
        x = px(float(t))
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{size - margin}" x2="{_fmt(x)}" '
            f'y2="{size - margin + 4}" stroke="#555"/>\n'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{size - margin + 16}" '
            f'text-anchor="middle">{_fmt(t)}</text>\n'
        )
    for t in np.linspace(ymin, ymax, 5):
        y = py(float(t))
        parts.append(
            f'<line x1="{margin - 4}" y1="{_fmt(y)}" x2="{margin}" '
            f'y2="{_fmt(y)}" stroke="#555"/>\n'
        )
        parts.append(
            f'<text x="{margin - 7}" y="{_fmt(y + 3)}" text-anchor="end">{_fmt(t)}</text>\n'
        )
    parts.append(
        f'<text x="{size // 2}" y="{size - 12}" text-anchor="middle">{xlabel}</text>\n'
    )
    parts.append(
        f'<text x="14" y="{size // 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {size // 2})">{ylabel}</text>\n'
    )
    for s_idx, (name, pts) in enumerate(series):
        color = PALETTE[s_idx % len(PALETTE)]
        ly = margin + 14 + 16 * s_idx
        parts.append(f'<circle cx="{margin + 10}" cy="{ly - 4}" r="4" fill="{color}"/>\n')
        parts.append(f'<text x="{margin + 20}" y="{ly}">{name}</text>\n')
        for x, y, label in pts:
            cx, cy = px(x), py(y)
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4" fill="{color}" '
                f'fill-opacity="0.8"/>\n'
            )
            parts.append(
                f'<text x="{_fmt(cx + 6)}" y="{_fmt(cy - 5)}">{label}</text>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)
