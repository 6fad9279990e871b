"""Watershed-based mining of spatio-temporally invariant core regions.

The pipeline runs in five stages over a stack of annual fields:

1. per-year focus points: one rule over the 8-connected neighborhood.
   Every 8-connected component of equal-valued cells, of any size, with no
   more extreme neighbor yields one focus at its lexicographically smallest
   cell; a strict extremum is the one-cell case;
2. per-year zones: priority-flood watershed growth from the focus points
   over flat indices of a grid padded by one closed cell.  Each cell joins
   the zone of its earliest-popped neighbor, so zones are the trees of a
   forest labelled by pointer jumping.  With every regional extremum
   seeded, the pop order is a sort by (key, flat index) in which a heap
   replays only plateau cells that no seed or more extreme neighbor
   enters; other seed sets fall back to the full heap;
3. recurrence mining: one stable sort of every year's focus cells by
   (row, col), with a frequent flag at ``count >= min_years``;
4. cores: grouping of all observed focus cells, either by 8-connected
   contiguity (CC) or within a Chebyshev radius with transitive closure
   (CR), classified by member recurrence into CHD / CLD / CND.  The table's
   cells stay one int64 array: a lexsort sorts them, a window search over
   flat cell keys finds close pairs, a numpy connected-components helper
   names each group by its first cell, and a lexsort on (-max count, first
   cell) orders the cores;
5. consensus: per-cell modal core assignment across all years.  Core
   extents and consensus share one zone-to-core translation: the anchors of
   a year's zones index a flat cell-to-core table of int64 member arrays,
   and only an anchor outside every core (off the grid included) takes the
   consensus's nearest-member search.

Foci stay arrays from detection to consensus (:class:`Foci`); a
:class:`FocusPoint` is built only when a caller reads one.

The number of cores is an output of the process, never an input.
"""

from __future__ import annotations

import heapq
import threading
import weakref
from dataclasses import dataclass, replace
from itertools import chain, pairwise, repeat
from typing import Callable, Collection, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EmptyDomainError, ParameterError, ShapeMismatchError
from .gridcore import (
    NEIGHBOR_OFFSETS,
    CellIndex,
    CellTable,
    GridGeometry,
    ScalarField,
    ZoneMap,
    _as_vector,
    _flat_cells,
    as_integer,
)
from .ingest import AnnualMeanStack

ORIENT_MAXIMA = "maxima"
ORIENT_MINIMA = "minima"
ORIENTATIONS = frozenset({ORIENT_MAXIMA, ORIENT_MINIMA})

MODE_CC = "cc"
MODE_CR = "cr"

CLASS_CHD = "CHD"  # contains a highly dominating (very frequent) focus
CLASS_CLD = "CLD"  # contains a less dominating focus
CLASS_CND = "CND"  # no dominating focus at all

DEFAULT_THETA_HIGH = 0.60
DEFAULT_THETA_DOM = 12.0 / 31.0


class FocusPoint(NamedTuple):
    """The representative cell of one equal-valued local extremum in one year."""

    cell: CellIndex
    year: int
    value: float


class Foci(Sequence[FocusPoint]):
    """One year's focus points as arrays: ``rows`` and ``cols`` (int64),
    ``values`` (float64) and the ``year``.

    The arrays are frozen copies of the ones given; ``rows`` and ``cols``
    must hold integers and all three the same number of entries, else
    :class:`ParameterError`.  As a sequence it reads like a list of
    :class:`FocusPoint`, each built of Python ints and a float only when it
    is read; a slice is a ``Foci``.  It equals any sequence of the same
    focus points.
    """

    __slots__ = ("rows", "cols", "values", "year")

    def __init__(self, rows, cols, values, year: int = 0):
        self.rows = _as_vector("focus rows", rows, np.int64)
        self.cols = _as_vector("focus cols", cols, np.int64)
        self.values = _as_vector("focus values", values, np.float64)
        if not self.rows.size == self.cols.size == self.values.size:
            raise ParameterError(
                f"{self.rows.size} focus rows, {self.cols.size} cols and {self.values.size} values"
            )
        self.year = year

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Foci(self.rows[i], self.cols[i], self.values[i], self.year)
        cell = CellIndex(int(self.rows[i]), int(self.cols[i]))
        return FocusPoint(cell, self.year, float(self.values[i]))

    def __iter__(self):
        cells = map(CellIndex, self.rows.tolist(), self.cols.tolist())
        return map(FocusPoint, cells, repeat(self.year), self.values.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return f"Foci({list(self)!r})"


@dataclass(frozen=True)
class FocusFrequencyTable:
    """Recurrence counts of focus cells across years.

    Keys are read by the cell rule (:func:`_int_cell`) and counts as the
    ints they equal (:func:`_integral`); a table of :class:`CellIndex` keys
    of ints, as mining gives, is checked without rebuilding its keys.
    """

    counts: Mapping[CellIndex, int]
    total_years: int
    min_years: int

    def __post_init__(self) -> None:
        for name in ("total_years", "min_years"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.total_years < 1:
            raise ParameterError("total_years must be >= 1")
        if self.min_years < 1:
            raise ParameterError("min_years must be >= 1")
        counts = dict(self.counts)
        if not _int_cells(counts.keys()):
            counts = {_int_cell(f"cell {c!r}", c): n for c, n in counts.items()}
        if not set(map(type, counts.values())) <= {int}:
            counts = {c: _integral(f"count for {c}", n) for c, n in counts.items()}
        for cell, n in counts.items():
            if not 0 < n <= self.total_years:
                raise ParameterError(f"count {n} for {cell} outside (0, {self.total_years}]")
        object.__setattr__(self, "counts", counts)

    def frequency(self, cell: CellIndex) -> float:
        return self.counts[cell] / self.total_years

    def is_frequent(self, cell: CellIndex) -> bool:
        return self.counts[cell] >= self.min_years

    @property
    def frequent_cells(self) -> tuple[CellIndex, ...]:
        return tuple(sorted(c for c in self.counts if self.is_frequent(c)))

    @property
    def cells(self) -> tuple[CellIndex, ...]:
        return tuple(sorted(self.counts))


@dataclass(frozen=True)
class Core:
    """A group of recurring focus cells and the territory their zones span."""

    id: int
    member_cells: tuple[CellIndex, ...]
    member_counts: tuple[int, ...]
    total_years: int
    mode: str
    radius: int | None
    dominance: str | None
    extent: frozenset[CellIndex]

    @property
    def representative(self) -> CellIndex:
        """Highest-count member, ties to the lexicographically smallest cell."""
        best = min(zip(self.member_cells, self.member_counts), key=lambda t: (-t[1], t[0]))
        return best[0]

    @property
    def extent_size(self) -> int:
        return len(self.extent)


def _check_orientation(orientation: str) -> bool:
    if orientation not in ORIENTATIONS:
        raise ParameterError(f"orientation must be 'maxima' or 'minima', got {orientation!r}")
    return orientation == ORIENT_MAXIMA


def _padded_keys(field: ScalarField, orientation: str) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """The field as flat row-major keys on a grid padded by one closed cell.

    A key is the value, negated under maxima, so a smaller key is more
    extreme in both orientations; masked and padding cells hold ``+inf``.
    Returns the keys, the padded row width and the eight flat neighbor offsets.
    Padding keeps every neighbor of a grid cell in range, and a flat index
    orders exactly like ``(row, col)``.
    """
    sign = -1.0 if _check_orientation(orientation) else 1.0
    nrows, ncols = field.geometry.shape
    width = ncols + 2
    keys = np.full((nrows + 2, width), np.inf)
    keys[1:-1, 1:-1] = np.where(field.mask, sign * field.values, np.inf)
    offsets = tuple(dr * width + dc for dr, dc in NEIGHBOR_OFFSETS)
    return keys.ravel(), width, offsets


def _roots(parent: np.ndarray) -> np.ndarray:
    """Each node's root in the forest of ``parent`` links (a root is its own
    parent), by pointer jumping until no link changes."""
    while True:
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            return parent
        parent = jumped


def _components(n: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Connected components of the undirected graph on nodes ``0..n-1`` with
    edges ``(heads[i], tails[i])``; self-loops and repeated edges are allowed.

    Min-label hooking and pointer jumping in the manner of Shiloach & Vishkin
    (1982): every label is a node of its component and never above it, each
    edge hooks the roots of both endpoints onto the smaller of the two, and
    labels then jump to their label's label until stable.  Rounds repeat
    until one changes nothing, when both ends of every edge share a root.
    Returns each node's root, the smallest node of its component.
    """
    lab = np.arange(n)
    while True:
        root_h, root_t = lab[heads], lab[tails]
        low = np.minimum(root_h, root_t)
        changed = low < np.maximum(root_h, root_t)
        if not changed.any():
            return lab
        np.minimum.at(lab, root_h[changed], low[changed])
        np.minimum.at(lab, root_t[changed], low[changed])
        lab = _roots(lab)


def _neighbor_relations(
    keys: np.ndarray, offsets: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every cell of a padded key grid against its eight neighbors.

    Returns ``beaten``, true where some neighbor holds a smaller (more
    extreme) key, and the equal-key neighbor pairs, each once, as two flat
    index arrays.  A valid cell never ties with a closed one.
    """
    beaten = np.zeros(keys.size, dtype=bool)
    heads, tails = [], []
    for off in (o for o in offsets if o > 0):
        head, tail = keys[:-off], keys[off:]
        beaten[:-off] |= tail < head
        beaten[off:] |= head < tail
        tie = np.flatnonzero(head == tail)
        heads.append(tie)
        tails.append(tie + off)
    return beaten, np.concatenate(heads), np.concatenate(tails)


class _KeyGrid(NamedTuple):
    """A field's padded keys (:func:`_padded_keys`) and the relations of each
    cell to its neighbors (:func:`_neighbor_relations`), built once per field
    by :func:`_key_grid` for focus detection and the watershed."""

    keys: np.ndarray
    width: int
    offsets: tuple[int, ...]
    beaten: np.ndarray
    heads: np.ndarray
    tails: np.ndarray


# Per thread, the last key grid built: (weak reference to its field, orientation, grid).
_last = threading.local()


def _key_grid(field: ScalarField, orientation: str) -> _KeyGrid:
    """The key grid of ``field`` under ``orientation``.  Each thread keeps the
    last grid it built, with a weak reference to its field, and hands it out
    again while the same field object and orientation are asked for."""
    last = getattr(_last, "grid", None)
    if last is not None and last[0]() is field and last[1] == orientation:
        return last[2]
    keys, width, offsets = _padded_keys(field, orientation)
    grid = _KeyGrid(keys, width, offsets, *_neighbor_relations(keys, offsets))
    _last.grid = (weakref.ref(field), orientation, grid)
    return grid


def detect_focus_points(field: ScalarField, orientation: str, year: int = 0) -> Foci:
    """Local extrema of a field over unmasked 8-neighborhoods, as a
    :class:`Foci` sequence of focus points held in arrays.

    Every 8-connected component of equal-valued unmasked cells (a strict
    extremum is the one-cell case) whose unmasked neighbors are all on the
    wrong side emits one focus at its lexicographically smallest cell; a
    component spanning every unmasked cell emits none.  Each component is
    named by that cell, its root (:func:`_components`), so foci come in (row, col) order.
    """
    grid = _key_grid(field, orientation)
    valid = grid.keys < np.inf
    total_valid = int(valid.sum())
    if total_valid == 0:
        raise EmptyDomainError("field is fully masked")

    component = _components(grid.keys.size, grid.heads, grid.tails)
    first = np.flatnonzero(component == np.arange(component.size))
    size = np.bincount(component)[first]
    blocked = np.bincount(component, weights=grid.beaten)[first] > 0
    emit = first[valid[first] & ~blocked & (size < total_valid)]

    rows, cols = np.divmod(emit - grid.width - 1, grid.width)  # padded flat index to grid cell
    return Foci(rows, cols, field.values[rows, cols], year)


def _flood_order(
    keys: Sequence[float], seen: Sequence[bool], starts: list[int], offsets: tuple[int, ...],
    same_key: bool,
) -> np.ndarray:
    """Flat indices in the order a priority flood pops them.

    The queue starts with ``starts`` and pops ``(key, flat index)`` entries
    smallest first.  A popped cell queues each neighbor not yet ``seen``
    (with ``same_key``, only those of its own key) and marks it seen.
    ``seen`` must hold true for closed cells; it is updated in place.
    """
    heap = [(keys[p], p) for p in starts]
    for p in starts:
        seen[p] = True
    heapq.heapify(heap)
    order = []
    while heap:
        key, p = heapq.heappop(heap)
        order.append(p)
        for off in offsets:
            q = p + off
            if not seen[q] and (keys[q] == key or not same_key):
                seen[q] = True
                heapq.heappush(heap, (keys[q], q))
    return np.array(order, dtype=np.intp)


def _sorted_pop_order(grid: _KeyGrid, seeds: np.ndarray) -> np.ndarray | None:
    """The pop order of the flood from ``seeds`` over every valid cell of the
    padded key grid, or None when the seeds miss a regional extremum.

    A cell is entered when it is a seed or has a more extreme neighbor, and
    late when it is neither but has an equal-key neighbor.  Entered cells are
    queued before their level starts, so they pop in (key, flat index) order:
    one stable sort.  The heap replays only the late cells, over equal keys
    alone, from the entered cells next to them, the only ones that queue a
    late cell.  A replayed cell sorts on its level as if its flat index were
    the largest popped so far in the replay, ties in replay order.  The
    seeds miss an extremum when a valid cell is neither entered nor late,
    or when the replay misses a late cell.
    """
    keys, heads, tails, n = grid.keys, grid.heads, grid.tails, grid.keys.size
    cells = np.flatnonzero(keys < np.inf)
    order = cells[np.argsort(keys[cells], kind="stable")]
    # Valid cells that nothing enters; each must be late, on a plateau.
    late = keys < np.inf
    late[grid.beaten] = False
    late[seeds] = False
    if not late.any():
        return order
    edge = late[heads] | late[tails]
    touched = np.zeros(n, dtype=bool)
    touched[heads[edge]] = touched[tails[edge]] = True
    if not touched[late].all():
        return None
    starts = np.flatnonzero(touched & ~late)
    # Equal keys only: a flood across levels would reach an unseeded
    # extremal plateau from above and hide that the seeds miss it.
    replay = _flood_order(keys, ~late, starts.tolist(), grid.offsets, True)
    if replay.size < starts.size + late.sum():
        return None

    # A cell popped below a larger flat index of its level moves just behind the largest.
    shift = n * np.cumsum(np.r_[False, keys[replay[1:]] != keys[replay[:-1]]])
    merge_at = np.maximum.accumulate(replay + shift) - shift
    moved = merge_at != replay
    stays = np.ones(n, dtype=bool)
    stays[replay[moved]] = False
    kept = order[stays[order]]
    rank = np.empty(n, dtype=np.intp)
    rank[kept] = np.arange(kept.size)
    return np.insert(kept, rank[merge_at[moved]] + 1, replay[moved])


def _integral(name: str, v) -> int:
    """``v`` as the int it equals (1.0, True and ``np.int64(1)`` all equal 1),
    or :class:`ParameterError` naming ``name`` if it equals none in int64."""
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != v or not -2**63 <= i < 2**63:
        raise ParameterError(f"{name} must equal an integer within int64, got {v!r}")
    return i


def _int_cell(name: str, cell) -> CellIndex:
    """``cell`` as the :class:`CellIndex` of the ints its row and col equal
    (:func:`_integral`); the cell rule of foci, table keys, zone anchors and
    core members.  A cell that is no pair raises, naming it."""
    try:
        r, c = cell
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a (row, col) pair, got {cell!r}") from None
    return CellIndex(_integral(f"{name} row", r), _integral(f"{name} col", c))


def _int_cells(cells: Collection) -> bool:
    """Whether every cell is a :class:`CellIndex` of ints within int64, one
    the cell rule (:func:`_int_cell`) keeps as it is."""
    if not set(map(type, cells)) <= {CellIndex}:
        return False
    coords = list(chain.from_iterable(cells))
    return set(map(type, coords)) <= {int} and (
        -2**63 <= min(coords, default=0) <= max(coords, default=0) < 2**63
    )


def _cell_arrays(name: str, cells: Sequence) -> np.ndarray:
    """``cells`` as an (n, 2) int64 array of rows and cols, each cell read by
    the cell rule (:func:`_int_cell`) unless all pass :func:`_int_cells`;
    the first fault in input order raises."""
    if not _int_cells(cells):
        cells = [_int_cell(name, cell) for cell in cells]
    return np.fromiter(chain.from_iterable(cells), np.int64, 2 * len(cells)).reshape(-1, 2)


def _focus_cells(foci: Sequence[FocusPoint]) -> tuple[np.ndarray, np.ndarray]:
    """The rows and cols of the foci as int64 arrays: a :class:`Foci` gives
    its own; any other sequence is read by :func:`_cell_arrays`."""
    if isinstance(foci, Foci):
        return foci.rows, foci.cols
    return tuple(_cell_arrays("focus", [fp.cell for fp in foci]).T)


def _focus_seeds(
    rows: np.ndarray, cols: np.ndarray, geom: GridGeometry, width: int, valid: np.ndarray
) -> np.ndarray:
    """The padded flat index of the focus at each ``(rows[i], cols[i])``.

    Bounds, mask and repeats are checked on the whole arrays, and the first
    faulty focus in input order raises a ``ParameterError`` naming its cell.
    """
    inside = _flat_cells(rows, cols, geom) >= 0
    # Pad cell 0 is closed, so an off-grid focus never reads as open.
    seeds = np.where(inside, (rows + 1) * width + cols + 1, 0).astype(np.intp)
    is_open = valid[seeds]
    # Open foci by seed, input order within a seed: a repeat follows its first.
    by_seed = np.flatnonzero(is_open)
    by_seed = by_seed[np.argsort(seeds[by_seed], kind="stable")]
    repeated = np.zeros(seeds.size, dtype=bool)
    repeated[by_seed[1:]] = seeds[by_seed[1:]] == seeds[by_seed[:-1]]
    fault = ~is_open | repeated
    if fault.any():
        i = int(fault.argmax())
        cell = CellIndex(int(rows[i]), int(cols[i]))
        if not inside[i]:
            raise ParameterError(f"focus {cell} outside the grid")
        if not is_open[i]:
            raise ParameterError(f"focus {cell} lies on a masked cell")
        raise ParameterError(f"duplicate focus cell {cell}")
    return seeds


def watershed_zones(
    field: ScalarField, foci: Sequence[FocusPoint], orientation: str
) -> ZoneMap:
    """Priority-flood region growing from focus seeds.

    The flood queues ``(key, flat index)`` entries on the padded key grid of
    :func:`_padded_keys`, so the extremal value pops first (largest under
    maxima orientation), ties broken by smaller (row, col).  A popped cell
    hands its label to each unmasked 8-neighbor not yet labeled, so every
    cell carries the label of its earliest-popped neighbor.  Those links
    form a forest rooted at the foci, and pointer jumping labels it.

    Only the pop order needs the flood.  When the foci cover every regional
    extremum (as :func:`detect_focus_points` gives them), it is a sort by
    ``(key, flat index)`` with a heap replayed only over plateau cells that
    no focus or more extreme neighbor enters (see :func:`_sorted_pop_order`);
    for any other seed set the full heap runs over every reachable cell.
    Unmasked cells unreachable from every focus stay unlabeled.

    The focus cells are read by the cell rule (:func:`_focus_cells`), then
    checked on whole arrays (:func:`_focus_seeds`): the first focus in input
    order off the grid, on a masked cell or on an earlier focus's cell
    raises a ``ParameterError`` that names it.  Zone ``i`` is anchored on
    the cell of focus ``i``, in a :class:`CellTable`.
    """
    grid = _key_grid(field, orientation)
    if not foci:
        raise ParameterError("watershed requires at least one focus")
    keys, width, offsets = grid.keys, grid.width, grid.offsets
    geom = field.geometry

    rows, cols = _focus_cells(foci)
    valid = keys < np.inf
    seeds = _focus_seeds(rows, cols, geom, width, valid)

    order = _sorted_pop_order(grid, seeds)
    if order is None:
        order = _flood_order(keys.tolist(), (~valid).tolist(), seeds.tolist(), offsets, False)
    # Each cell links to its earliest-popped neighbor; seeds, and cells no
    # neighbor of which ever pops, are roots.
    n = keys.size
    rank = np.full(n, n)
    rank[order] = np.arange(order.size)
    cells = np.flatnonzero(valid)
    earliest = rank[cells + offsets[0]]
    for off in offsets[1:]:
        np.minimum(earliest, rank[cells + off], out=earliest)
    parent = np.arange(n)
    linked = earliest < n
    parent[cells[linked]] = order[earliest[linked]]
    parent[seeds] = seeds
    label = np.full(n, -1, dtype=np.int32)
    label[seeds] = np.arange(seeds.size)
    grid = label[_roots(parent)].reshape(-1, width)[1:-1, 1:-1]
    return ZoneMap(geom, grid, CellTable(rows, cols))


def mine_frequent_foci(
    yearly_foci: Sequence[Sequence[FocusPoint]], total_years: int, min_years: int
) -> FocusFrequencyTable:
    """Count per-exact-cell focus recurrence across years.

    Every observed focus cell enters the table, in the order it is first
    seen, keyed by ints; a cell is flagged frequent iff its count reaches
    ``min_years``.  Each year's cells are read by the cell rule
    (:func:`_focus_cells`) and counted in one stable sort.
    """
    arrays = [(np.zeros(0, np.int64),) * 2, *map(_focus_cells, yearly_foci)]
    rows, cols = (np.concatenate(coord) for coord in zip(*arrays))
    # Each cell's foci in one run, in input order.
    by_cell = np.lexsort((cols, rows))
    rows, cols = rows[by_cell], cols[by_cell]
    starts = np.ones(rows.size, dtype=bool)
    starts[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(starts)
    n = np.diff(starts, append=rows.size)
    order = np.argsort(by_cell[starts])  # cells in the order first seen
    starts = starts[order]
    cells = map(CellIndex, rows[starts].tolist(), cols[starts].tolist())
    counts = dict(zip(cells, n[order].tolist()))
    return FocusFrequencyTable(counts, total_years, min_years)


def _close_pairs(cells: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of distinct rows of the (n, 2) ``cells``, once, within
    Chebyshev distance ``radius``, as two index arrays.

    Cells become flat keys ``rank * w + col``, with ``rank`` the cell's row
    among the occupied rows, the smallest col taken off and ``w`` the col
    span plus ``2 * radius + 1``, the radius clamped to the largest span
    first, so the column window ``key ± radius`` of one row never reaches
    into another and the keys stay below ``n * 3 * 2**32`` for any int32
    cells.  With the keys sorted once, each rank offset ``d`` costs two
    binary searches for the cells that have an occupied row ``d`` ranks on
    within the radius.
    """
    occupied, rank = np.unique(cells[:, 0], return_inverse=True)
    cols = cells[:, 1] - cells[:, 1].min()
    radius = min(radius, int(max(occupied[-1] - occupied[0], cols.max())))
    width = int(cols.max()) + 2 * radius + 1
    keys = rank * width + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # How many occupied rows past its own lie within the radius of each cell.
    reach = np.searchsorted(occupied, occupied + radius, side="right") - np.arange(len(occupied)) - 1
    reach = reach[rank[order]]
    heads, tails = [], []
    src = np.arange(len(keys))
    for d in range(int(reach.max()) + 1):
        src = src[reach[src] >= d]
        centre = keys[src] + d * width
        lo = src + 1 if d == 0 else np.searchsorted(keys, centre - radius)
        hi = np.searchsorted(keys, centre + radius, side="right")
        count = hi - lo
        ends = np.cumsum(count)
        heads.append(np.repeat(src, count))
        tails.append(np.arange(ends[-1]) + np.repeat(lo - (ends - count), count))
    heads, tails = np.concatenate(heads), np.concatenate(tails)
    return order[heads], order[tails]


def _shared_geometry(yearly_zones: Sequence[ZoneMap]) -> GridGeometry:
    geom = yearly_zones[0].geometry
    if any(zm.geometry.shape != geom.shape for zm in yearly_zones):
        raise ShapeMismatchError("yearly zone maps must share a geometry")
    return geom


def _core_table(members: np.ndarray, owner: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """The core id of every (flat) grid cell: ``owner[i]`` where the cell is
    the int64 member cell ``members[i]``, -1 for any other cell; a cell
    listed for several cores belongs to the first listed."""
    flat = _flat_cells(members[:, 0], members[:, 1], geom)
    on_grid = np.flatnonzero(flat >= 0)
    cells, first = np.unique(flat[on_grid], return_index=True)
    core_at = np.full(geom.ncells, -1, dtype=np.int64)
    core_at[cells] = owner[on_grid[first]]
    return core_at


def _cell_cores(zm: ZoneMap, core_at: np.ndarray, nearest: Callable[[CellIndex], int]) -> np.ndarray:
    """The core id of every (flat) cell of ``zm``: ``core_at`` of its zone's
    anchor (:func:`_core_table`), else ``nearest(anchor)``, which runs only
    for anchors outside every core or the grid; -1 for an unlabeled cell or
    a label without an anchor.  A :class:`CellTable` label is its anchor's
    position; other anchors are read by :func:`_cell_arrays` in label order
    and found by binary search, so memory follows the zones, not the labels.
    """
    anchors, flat = zm.anchors, zm.labels.ravel()
    if isinstance(anchors, CellTable):
        rows, cols = anchors.rows, anchors.cols
        slots = np.where(flat < len(anchors), flat, -1)
    else:
        labels = sorted(label for label in anchors if label >= 0)
        rows, cols = _cell_arrays("anchor", [anchors[label] for label in labels]).T
        keys = np.array([-1, *labels], dtype=np.int64)
        slot = np.searchsorted(keys, flat, side="right") - 1
        slots = np.where(keys[slot] == flat, slot - 1, -1)
    at = _flat_cells(rows, cols, zm.geometry)
    ids = np.where(at >= 0, core_at[at], -1)
    for i in np.flatnonzero(ids < 0).tolist():
        ids[i] = nearest(CellIndex(int(rows[i]), int(cols[i])))
    return np.append(ids, -1)[slots]  # slot -1 takes the appended -1


def _check_grouping(mode: str, radius: int) -> int:
    if mode not in (MODE_CC, MODE_CR):
        raise ParameterError(f"mode must be 'cc' or 'cr', got {mode!r}")
    radius = as_integer("radius", radius)
    if mode == MODE_CR and radius < 1:
        raise ParameterError(f"CR mode requires radius >= 1, got radius={radius}")
    return radius


def build_cores(
    table: FocusFrequencyTable,
    mode: str = MODE_CC,
    radius: int = 1,
    yearly_zones: Sequence[ZoneMap] = (),
) -> list[Core]:
    """Group all observed focus cells into cores and attach their extents.

    CC joins 8-adjacent focus cells (connected components); CR joins any two
    foci within Chebyshev distance ``radius``, closed transitively.  Both
    find close pairs by a window search over sorted flat cell keys
    (:func:`_close_pairs`), exact for int32 cells, so the first table key
    beyond int32 raises.  A core's extent is the union over years of the
    cells of every zone whose anchor is one of its members.  Ids are
    assigned by decreasing maximum member frequency, ties by smallest member
    cell.  Dominance is left unset; see :func:`classify_core`.
    """
    radius = _check_grouping(mode, radius)
    n = len(table.counts)
    if not n:
        return []
    # The table's keys are CellIndex of ints within int64 (its constructor).
    cells = np.fromiter(chain.from_iterable(table.counts), np.int64, 2 * n).reshape(-1, 2)
    counts = np.fromiter(table.counts.values(), np.int64, n)
    beyond = ((cells < -2**31) | (cells >= 2**31)).any(axis=1)
    if beyond.any():
        cell = CellIndex(*cells[beyond.argmax()].tolist())
        raise ParameterError(f"core grouping takes cells within int32, got table key {cell}")
    by_cell = np.lexsort((cells[:, 1], cells[:, 0]))
    cells, counts = cells[by_cell], counts[by_cell]
    root = _components(n, *_close_pairs(cells, 1 if mode == MODE_CC else radius))
    top = np.zeros(n, dtype=np.int64)
    np.maximum.at(top, root, counts)
    # Members by core, each core's in cell order: cores by decreasing maximum
    # count, ties by root, the core's first cell.
    by_core = np.lexsort((root, -top[root]))
    members, counts, root = cells[by_core], counts[by_core], root[by_core]
    owner = np.cumsum(np.r_[True, root[1:] != root[:-1]]) - 1
    spans = list(pairwise(np.searchsorted(owner, np.arange(owner[-1] + 2)).tolist()))
    member_cells, counts = list(map(CellIndex, *members.T.tolist())), counts.tolist()
    extents = [set(member_cells[s:e]) for s, e in spans]
    if yearly_zones:
        geom = _shared_geometry(yearly_zones)
        core_at = _core_table(members, owner, geom)
        # zone_hit[i, cell]: a year's zone anchored on a member of core i holds the cell.
        zone_hit = np.zeros((len(spans), geom.ncells), dtype=bool)
        for zm in yearly_zones:
            core_ids = _cell_cores(zm, core_at, lambda anchor: -1)
            hit = np.flatnonzero(core_ids >= 0)
            zone_hit[core_ids[hit], hit] = True
        for extent, row in zip(extents, zone_hit):
            rows, cols = np.divmod(np.flatnonzero(row), geom.ncols)
            extent.update(map(CellIndex, rows.tolist(), cols.tolist()))

    return [
        Core(
            id=i,
            member_cells=tuple(member_cells[s:e]),
            member_counts=tuple(counts[s:e]),
            total_years=table.total_years,
            mode=mode,
            radius=radius if mode == MODE_CR else None,
            dominance=None,
            extent=frozenset(extent),
        )
        for i, ((s, e), extent) in enumerate(zip(spans, extents))
    ]


def _check_thresholds(theta_high: float, theta_dom: float) -> None:
    if not (0.0 < theta_dom <= theta_high <= 1.0):
        raise ParameterError(
            f"thresholds must satisfy 0 < theta_dom <= theta_high <= 1, "
            f"got theta_dom={theta_dom}, theta_high={theta_high}"
        )


def classify_core(
    core: Core,
    table: FocusFrequencyTable,
    theta_high: float = DEFAULT_THETA_HIGH,
    theta_dom: float = DEFAULT_THETA_DOM,
) -> str:
    """Dominance class from member recurrence frequencies.

    CHD when any member reaches ``theta_high``; else CLD when any member
    reaches ``theta_dom``; else CND.  A core without members or with one
    missing from ``table`` raises.
    """
    _check_thresholds(theta_high, theta_dom)
    counts = list(map(table.counts.get, core.member_cells))
    if not counts:
        raise ParameterError(f"core {core.id} has no members")
    if None in counts:
        cell = core.member_cells[counts.index(None)]
        raise ParameterError(f"core {core.id} member {cell} is not in the table")
    top = max(counts) / table.total_years
    if top >= theta_high:
        return CLASS_CHD
    if top >= theta_dom:
        return CLASS_CLD
    return CLASS_CND


def consensus_zone_map(yearly_zones: Sequence[ZoneMap], cores: Sequence[Core]) -> ZoneMap:
    """Per-cell modal core id across years ("zone of maximum occurrence").

    Each year's zones are first translated to core ids; a cell's consensus
    label is the core id occurring in the most years, ties to the smaller
    id.  Cells labeled in no year stay unlabeled.  Core members are read by
    the cell rule (:func:`_cell_arrays`); a core without members raises.
    """
    if not yearly_zones:
        raise ParameterError("consensus requires at least one yearly zone map")
    if not cores:
        raise ParameterError("consensus requires at least one core")
    sizes = [len(core.member_cells) for core in cores]
    if 0 in sizes:
        raise ParameterError(f"core {cores[sizes.index(0)].id} has no members")
    geom = _shared_geometry(yearly_zones)
    ncores, ncells = len(cores), geom.ncells
    members = _cell_arrays("core member", [c for core in cores for c in core.member_cells])
    member_ids = np.repeat(np.fromiter((core.id for core in cores), np.int64, ncores), sizes)
    core_at = _core_table(members, member_ids, geom)

    def nearest(anchor: CellIndex) -> int:
        # The core with the Chebyshev-nearest member, ties to the smaller id;
        # larger minus smaller as uint64 is exact over all of int64.
        lo, hi = np.minimum(members, anchor), np.maximum(members, anchor)
        dist = (hi.view(np.uint64) - lo.view(np.uint64)).max(axis=1)
        return member_ids[np.lexsort((member_ids, dist))[0]]

    codes = []
    for zm in yearly_zones:
        translated = _cell_cores(zm, core_at, nearest)
        # Only ids 0..ncores-1 vote; unlabeled cells (-1) and other ids do not.
        voted = np.flatnonzero((translated >= 0) & (translated < ncores))
        codes.append(translated[voted] * ncells + voted)
    votes = np.bincount(np.concatenate(codes), minlength=ncores * ncells)
    votes = votes.reshape(ncores, ncells)
    winner = votes.argmax(axis=0)  # first max = smallest id
    labels = np.where(votes.sum(axis=0) > 0, winner, -1).reshape(geom.shape)
    anchors = {core.id: core.representative for core in cores}
    return ZoneMap(geom, labels, anchors)


@dataclass(frozen=True)
class MisticParams:
    """Knobs for the full pipeline run.

    ``theta_dom=None`` derives the dominance threshold from the frequent
    threshold (``min_years / total_years``).
    """

    orientation: str = ORIENT_MAXIMA
    min_years: int = 12
    mode: str = MODE_CC
    radius: int = 1
    theta_high: float = DEFAULT_THETA_HIGH
    theta_dom: float | None = None


@dataclass(frozen=True)
class MisticResult:
    years: tuple[int, ...]
    yearly_foci: Mapping[int, Sequence[FocusPoint]]
    yearly_zones: Mapping[int, ZoneMap]
    table: FocusFrequencyTable
    cores: tuple[Core, ...]
    consensus: ZoneMap
    theta_high: float
    theta_dom: float
    notices: tuple[str, ...]


def run_mistic(stack: AnnualMeanStack, params: MisticParams = MisticParams()) -> MisticResult:
    """Compose the full pipeline over an annual-mean stack.

    Every year runs over the stack's combined mask so recurrence is counted
    on a stable domain.  Every parameter is checked before the first year.
    """
    if stack.n_years == 0:
        raise EmptyDomainError("stack has no years")
    _check_orientation(params.orientation)
    min_years = as_integer("min_years", params.min_years)
    if min_years < 1:
        raise ParameterError(f"min_years must be >= 1, got min_years={min_years}")
    _check_grouping(params.mode, params.radius)
    theta_dom = params.theta_dom
    if theta_dom is None:
        # Derived from the frequent threshold, clamped so the CHD bar stays
        # on top when min_years/total_years exceeds it (short stacks).
        theta_dom = min(min_years / stack.n_years, params.theta_high)
    _check_thresholds(params.theta_high, theta_dom)
    notices: list[str] = []

    yearly_foci: dict[int, Foci] = {}
    yearly_zones: dict[int, ZoneMap] = {}
    for year, f in zip(stack.years, stack.fields):
        field = ScalarField(stack.geometry, f.values, stack.mask, f.units)
        foci = detect_focus_points(field, params.orientation, year=year)
        yearly_foci[year] = foci
        if not foci:
            notices.append(f"year {year}: no focus points detected")
            yearly_zones[year] = ZoneMap(stack.geometry, np.full(stack.geometry.shape, -1), {})
            continue
        yearly_zones[year] = watershed_zones(field, foci, params.orientation)

    table = mine_frequent_foci([yearly_foci[y] for y in stack.years], stack.n_years, min_years)

    zone_list = [yearly_zones[y] for y in stack.years]
    cores = build_cores(table, params.mode, params.radius, zone_list)
    cores = tuple(
        replace(core, dominance=classify_core(core, table, params.theta_high, theta_dom))
        for core in cores
    )

    if cores:
        consensus = consensus_zone_map(zone_list, cores)
    else:
        notices.append("no focus points detected in any year; no cores, empty consensus")
        consensus = ZoneMap(stack.geometry, np.full(stack.geometry.shape, -1, np.int32), {})

    return MisticResult(
        years=stack.years,
        yearly_foci=yearly_foci,
        yearly_zones=yearly_zones,
        table=table,
        cores=cores,
        consensus=consensus,
        theta_high=params.theta_high,
        theta_dom=theta_dom,
        notices=tuple(notices),
    )
