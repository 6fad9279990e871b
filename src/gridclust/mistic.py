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
   seeded, the pop order is a sort by (key, flat index) in which only
   plateau cells replay a heap, over equal keys alone; other seed sets
   fall back to the full heap;
3. recurrence mining: counting, per exact cell, how many years produced a
   focus there, with a frequent flag at ``count >= min_years``;
4. cores: grouping of all observed focus cells, either by 8-connected
   contiguity (CC) or within a Chebyshev radius with transitive closure
   (CR), classified by member recurrence into CHD / CLD / CND.  Close pairs
   come from a window search over sorted flat cell keys and are closed
   into groups by a numpy connected-components helper;
5. consensus: per-cell modal core assignment across all years.  Core
   extents and consensus share one zone-to-core translation (through each
   zone's anchor focus), with one table entry per anchored zone.

The number of cores is an output of the process, never an input.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import EmptyDomainError, ParameterError, ShapeMismatchError
from .gridcore import (
    NEIGHBOR_OFFSETS,
    CellIndex,
    GridGeometry,
    ScalarField,
    ZoneMap,
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


@dataclass(frozen=True)
class FocusPoint:
    """The representative cell of one equal-valued local extremum in one year."""

    cell: CellIndex
    year: int
    value: float


@dataclass(frozen=True)
class FocusFrequencyTable:
    """Recurrence counts of focus cells across years."""

    counts: Mapping[CellIndex, int]
    total_years: int
    min_years: int

    def __post_init__(self) -> None:
        if self.total_years < 1:
            raise ParameterError("total_years must be >= 1")
        if self.min_years < 1:
            raise ParameterError("min_years must be >= 1")
        counts = {CellIndex(*c): int(n) for c, n in dict(self.counts).items()}
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
    def member_frequencies(self) -> tuple[float, ...]:
        return tuple(n / self.total_years for n in self.member_counts)

    @property
    def max_frequency(self) -> float:
        return max(self.member_frequencies)

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
    Returns the keys, the padded row width and the eight flat neighbor
    offsets.  Padding keeps every neighbor of a grid
    cell in range, and a flat index orders exactly like ``(row, col)``.
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
    Returns dense labels ``0..C-1``, numbered by each component's smallest
    node.
    """
    lab = np.arange(n)
    while True:
        root_h, root_t = lab[heads], lab[tails]
        low = np.minimum(root_h, root_t)
        changed = low < np.maximum(root_h, root_t)
        if not changed.any():
            return np.unique(lab, return_inverse=True)[1]
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


def detect_focus_points(
    field: ScalarField, orientation: str, year: int = 0
) -> list[FocusPoint]:
    """Local extrema of a field over unmasked 8-neighborhoods.

    Every 8-connected component of equal-valued unmasked cells (a strict
    extremum is the one-cell case) whose unmasked neighbors are all on the
    wrong side emits one focus at its lexicographically smallest cell; a
    component spanning every unmasked cell emits none.  Results are ordered
    by (row, col).
    """
    keys, width, offsets = _padded_keys(field, orientation)
    valid = keys < np.inf
    total_valid = int(valid.sum())
    if total_valid == 0:
        raise EmptyDomainError("field is fully masked")

    beaten, heads, tails = _neighbor_relations(keys, offsets)
    component = _components(keys.size, heads, tails)
    _, first, size = np.unique(component, return_index=True, return_counts=True)
    blocked = np.bincount(component, weights=beaten) > 0
    emit = np.sort(first[valid[first] & ~blocked & (size < total_valid)])

    rows, cols = np.divmod(emit, width)
    rows, cols = (rows - 1).tolist(), (cols - 1).tolist()
    values = field.values[rows, cols].tolist()
    return [
        FocusPoint(CellIndex(r, c), year, v) for r, c, v in zip(rows, cols, values)
    ]


def _flood_order(
    keys: list[float], seen: list[bool], starts: list[int], offsets: tuple[int, ...],
    same_key: bool,
) -> list[int]:
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
    return order


def _sorted_pop_order(
    keys: np.ndarray, offsets: tuple[int, ...], seeds: np.ndarray
) -> np.ndarray | None:
    """The pop order of the flood from ``seeds`` over every valid cell of the
    padded key grid, or None when the seeds miss a regional extremum.

    A plateau cell is a valid cell with an equal-key neighbor.  The seeds
    cover every extremum when each non-plateau cell is a seed or has a more
    extreme neighbor, and a flood over equal keys alone, from the plateau
    cells that are seeds or have one, reaches every plateau cell.  Keys then
    pop in order, and each non-plateau cell is queued before its key level
    starts.  So only that equal-key flood needs a heap; each level's other
    cells merge into its order by flat index, a plateau cell sorting at the
    largest flat index popped so far on its level.
    """
    valid = keys < np.inf
    entered, heads, tails = _neighbor_relations(keys, offsets)
    entered[seeds] = True
    plateau = np.zeros(keys.size, dtype=bool)
    plateau[heads] = True
    plateau[tails] = True
    plateau &= valid
    if (valid & ~plateau & ~entered).any():
        return None
    # Equal keys only: a flood across levels would reach an unseeded
    # extremal plateau from above and hide that the seeds miss it.
    starts = np.flatnonzero(plateau & entered).tolist()
    replay = np.array(
        _flood_order(keys.tolist(), (~plateau).tolist(), starts, offsets, True), dtype=np.intp
    )
    if replay.size < plateau.sum():
        return None

    # Sort by (key, merge position, replay position); a non-plateau cell's
    # merge position is its own flat index.
    merge_at = np.arange(keys.size)
    replay_at = np.zeros(keys.size, dtype=np.intp)
    if replay.size:
        level = np.concatenate(([0], np.cumsum(keys[replay[1:]] != keys[replay[:-1]])))
        shift = level * keys.size
        merge_at[replay] = np.maximum.accumulate(replay + shift) - shift
        replay_at[replay] = np.arange(replay.size)
    cells = np.flatnonzero(valid)
    return cells[np.lexsort((replay_at[cells], merge_at[cells], keys[cells]))]


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
    ``(key, flat index)`` with a heap replayed over plateaus alone (see
    :func:`_sorted_pop_order`); for any other seed set the full heap runs
    over every reachable cell.  Unmasked cells unreachable from every focus
    stay unlabeled.
    """
    keys, width, offsets = _padded_keys(field, orientation)
    if not foci:
        raise ParameterError("watershed requires at least one focus")
    geom = field.geometry

    valid = keys < np.inf
    anchors: dict[int, CellIndex] = {}
    seed_cells: list[int] = []
    seen: set[int] = set()
    for i, fp in enumerate(foci):
        r, c = fp.cell
        if not geom.contains(r, c):
            raise ParameterError(f"focus {fp.cell} outside the grid")
        p = int((r + 1) * width + c + 1)
        if not valid[p]:
            raise ParameterError(f"focus {fp.cell} lies on a masked cell")
        if p in seen:
            raise ParameterError(f"duplicate focus cell {fp.cell}")
        seen.add(p)
        anchors[i] = CellIndex(r, c)
        seed_cells.append(p)
    seeds = np.array(seed_cells)

    order = _sorted_pop_order(keys, offsets, seeds)
    if order is None:
        order = np.array(
            _flood_order(keys.tolist(), (~valid).tolist(), seeds.tolist(), offsets, False),
            dtype=np.intp,
        )
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
    return ZoneMap(geom, grid, anchors)


def mine_frequent_foci(
    yearly_foci: Sequence[Sequence[FocusPoint]], total_years: int, min_years: int
) -> FocusFrequencyTable:
    """Count per-exact-cell focus recurrence across years.

    Every observed focus cell enters the table; a cell is flagged frequent
    iff its count reaches ``min_years``.
    """
    counts: dict[CellIndex, int] = {}
    for year_foci in yearly_foci:
        for fp in year_foci:
            cell = CellIndex(*fp.cell)
            counts[cell] = counts.get(cell, 0) + 1
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


def _group_cells(cells: list[CellIndex], max_dist: int) -> list[list[CellIndex]]:
    """Transitive closure of 'within Chebyshev distance max_dist' over cells:
    the pairs of :func:`_close_pairs` closed by :func:`_components`.

    Each group keeps the order of ``cells``, so sorted input gives sorted
    groups; groups come in the order of their first cell.
    """
    heads, tails = _close_pairs(np.array(cells, dtype=np.int64).reshape(-1, 2), max_dist)
    component = _components(len(cells), heads, tails)
    groups: dict[int, list[CellIndex]] = {}
    for cell, k in zip(cells, component.tolist()):
        groups.setdefault(k, []).append(cell)
    return list(groups.values())


def _shared_geometry(yearly_zones: Sequence[ZoneMap]) -> GridGeometry:
    geom = yearly_zones[0].geometry
    if any(zm.geometry.shape != geom.shape for zm in yearly_zones):
        raise ShapeMismatchError("yearly zone maps must share a geometry")
    return geom


def _cell_cores(zm: ZoneMap, core_of: Callable[[CellIndex], int]) -> np.ndarray:
    """The core id of every (flat) cell of ``zm``: ``core_of`` of its zone's
    anchor, -1 for an unlabeled cell or a label without an anchor.

    The table holds one entry per anchor with a non-negative key, sorted by
    label behind an entry for label -1, and each cell finds its label's
    entry by binary search: memory follows the zones, not the largest label.
    """
    labels = sorted(label for label in zm.anchors if label >= 0)
    ids = np.array([-1] + [core_of(zm.anchors[label]) for label in labels], dtype=np.intp)
    keys = np.array([-1] + labels, dtype=np.int64)
    flat = zm.labels.ravel()
    slot = np.searchsorted(keys, flat, side="right") - 1
    return np.where(keys[slot] == flat, ids[slot], -1)


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
    (:func:`_close_pairs`) and close them with :func:`_components`.  A core's
    extent is the union over years of the cells of every zone whose anchor is
    one of its members.  Ids are assigned by decreasing maximum member
    frequency, ties by smallest member cell.  Dominance is left unset; see
    :func:`classify_core`.
    """
    if mode not in (MODE_CC, MODE_CR):
        raise ParameterError(f"mode must be 'cc' or 'cr', got {mode!r}")
    if mode == MODE_CR and radius < 1:
        raise ParameterError("CR mode requires radius >= 1")
    cells = sorted(table.counts)
    if not cells:
        return []
    max_dist = 1 if mode == MODE_CC else radius
    groups = sorted(
        _group_cells(cells, max_dist),
        key=lambda group: (-max(table.counts[c] for c in group), group[0]),
    )
    core_of = {cell: i for i, group in enumerate(groups) for cell in group}

    extents = [set(group) for group in groups]
    if yearly_zones:
        geom = _shared_geometry(yearly_zones)
        # zone_hit[i, cell]: some year's zone anchored on a member of core i
        # holds the (flat) cell.
        zone_hit = np.zeros((len(groups), geom.nrows * geom.ncols), dtype=bool)
        for zm in yearly_zones:
            core_ids = _cell_cores(zm, lambda anchor: core_of.get(anchor, -1))
            hit = np.flatnonzero(core_ids >= 0)
            zone_hit[core_ids[hit], hit] = True
        for extent, row in zip(extents, zone_hit):
            rows, cols = np.divmod(np.flatnonzero(row), geom.ncols)
            extent.update(map(CellIndex, rows.tolist(), cols.tolist()))

    return [
        Core(
            id=i,
            member_cells=tuple(group),
            member_counts=tuple(table.counts[c] for c in group),
            total_years=table.total_years,
            mode=mode,
            radius=radius if mode == MODE_CR else None,
            dominance=None,
            extent=frozenset(extent),
        )
        for i, (group, extent) in enumerate(zip(groups, extents))
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
    reaches ``theta_dom``; else CND.
    """
    _check_thresholds(theta_high, theta_dom)
    freqs = [table.counts[c] / table.total_years for c in core.member_cells]
    top = max(freqs)
    if top >= theta_high:
        return CLASS_CHD
    if top >= theta_dom:
        return CLASS_CLD
    return CLASS_CND


def consensus_zone_map(yearly_zones: Sequence[ZoneMap], cores: Sequence[Core]) -> ZoneMap:
    """Per-cell modal core id across years ("zone of maximum occurrence").

    Each year's zones are first translated to core ids; a cell's consensus
    label is the core id occurring in the most years, ties to the smaller
    id.  Cells labeled in no year stay unlabeled.
    """
    if not yearly_zones:
        raise ParameterError("consensus requires at least one yearly zone map")
    if not cores:
        raise ParameterError("consensus requires at least one core")
    geom = _shared_geometry(yearly_zones)
    ncores, ncells = len(cores), geom.nrows * geom.ncols
    member_to_core: dict[CellIndex, int] = {}
    for core in cores:
        for cell in core.member_cells:
            member_to_core.setdefault(cell, core.id)
    members = np.array([cell for core in cores for cell in core.member_cells]).reshape(-1, 2)
    member_ids = np.array([core.id for core in cores for _ in core.member_cells])

    def core_of(anchor: CellIndex) -> int:
        # The core holding the anchor, else the core with the Chebyshev-nearest
        # member, ties to the smaller id.
        if anchor in member_to_core:
            return member_to_core[anchor]
        dist = np.abs(members - anchor).max(axis=1)
        return member_ids[np.lexsort((member_ids, dist))[0]]

    codes = []
    for zm in yearly_zones:
        translated = _cell_cores(zm, core_of)
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
    yearly_foci: Mapping[int, tuple[FocusPoint, ...]]
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
    on a stable domain.
    """
    if stack.n_years == 0:
        raise EmptyDomainError("stack has no years")
    _check_orientation(params.orientation)
    theta_dom = params.theta_dom
    if theta_dom is None:
        # Derived from the frequent threshold, clamped so the CHD bar stays
        # on top when min_years/total_years exceeds it (short stacks).
        theta_dom = min(params.min_years / stack.n_years, params.theta_high)
    _check_thresholds(params.theta_high, theta_dom)
    notices: list[str] = []

    yearly_foci: dict[int, tuple[FocusPoint, ...]] = {}
    yearly_zones: dict[int, ZoneMap] = {}
    for year, f in zip(stack.years, stack.fields):
        field = ScalarField(stack.geometry, f.values, stack.mask, f.units)
        foci = detect_focus_points(field, params.orientation, year=year)
        yearly_foci[year] = tuple(foci)
        if not foci:
            notices.append(f"year {year}: no focus points detected")
            yearly_zones[year] = ZoneMap(stack.geometry, np.full(stack.geometry.shape, -1), {})
            continue
        yearly_zones[year] = watershed_zones(field, foci, params.orientation)
        unreached = int((stack.mask & (yearly_zones[year].labels == -1)).sum())
        if unreached:
            notices.append(f"year {year}: {unreached} unmasked cells unreachable from any focus")

    table = mine_frequent_foci(
        [yearly_foci[y] for y in stack.years], stack.n_years, params.min_years
    )

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
