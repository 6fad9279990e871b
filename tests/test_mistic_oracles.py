"""Differential tests: the vectorised MiSTIC stages against their loop versions.

The oracles below are the earlier implementations of core grouping
(pairwise union-find, and scipy's ``cKDTree.query_pairs`` closed by
``connected_components``), connected components (``scipy.sparse.csgraph``),
watershed growth (label on first pop, stale entries skipped; and the
one-entry-per-cell heap flood, ``heap_watershed``, that labels on first
push), the watershed's pop order with a heap replayed from every entered
plateau cell (``oracle_sorted_pop_order``), core extents (one ``cells_of``
call per anchored zone), consensus voting (one pass per core id) and the
translation of zones to cores (one ``chebyshev`` call per anchor and member
for anchors outside every core).
The per-focus bookkeeping, which the library now does on arrays of foci,
has its loop versions too: the cell rule, one coordinate at a time
(``oracle_int64``, ``oracle_focus_cells``), the watershed's check of one
focus at a time after it (``oracle_focus_seeds``), recurrence counts in a dict
(``oracle_mine_frequent_foci``) and in one ``Counter``
(``oracle_counter_mine_frequent_foci``), and zone-to-core translation through
one ``core_of`` call per anchor, a member-to-core dict lookup and a
nearest-member search in Python ints, every anchor and member read by the
cell rule (``oracle_cell_cores`` with ``oracle_member_cores`` and
``oracle_consensus_core_of``).  The library must reproduce them exactly on
every input.
"""

import heapq
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from gridclust.errors import ParameterError
from gridclust.gridcore import CELSIUS, NEIGHBOR_OFFSETS, CellIndex, ZoneMap
from gridclust.ingest import AnnualMeanStack
from gridclust.mistic import (
    Core,
    Foci,
    FocusPoint,
    FocusFrequencyTable,
    MisticParams,
    _cell_arrays,
    _cell_cores,
    _close_pairs,
    _components,
    _core_table,
    _flood_order,
    _key_grid,
    _padded_keys,
    _sorted_pop_order,
    build_cores,
    consensus_zone_map,
    detect_focus_points,
    mine_frequent_foci,
    run_mistic,
    watershed_zones,
)

from conftest import make_field, planar_geom


def chebyshev(a, b):
    """Chebyshev (chessboard) distance between two cells."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def cells_of(zm, label):
    rows, cols = np.nonzero(zm.labels == label)
    return [CellIndex(int(r), int(c)) for r, c in zip(rows, cols)]


def oracle_mine_frequent_foci(yearly_foci, total_years, min_years):
    counts = {}
    for year_foci in yearly_foci:
        for fp in year_foci:
            cell = CellIndex(*fp.cell)
            counts[cell] = counts.get(cell, 0) + 1
    return FocusFrequencyTable(counts, total_years, min_years)


def oracle_counter_mine_frequent_foci(yearly_foci, total_years, min_years):
    """Recurrence counts as one ``Counter`` over every focus cell."""
    counts = Counter(fp.cell for year_foci in yearly_foci for fp in year_foci)
    return FocusFrequencyTable(counts, total_years, min_years)


def oracle_int64(v):
    """The int a coordinate or count equals if that int lies in int64, else
    None: the cell rule of foci and of table keys."""
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == v and -(2**63) <= i <= 2**63 - 1 else None


def oracle_cell(name, cell):
    """``cell`` as a ``CellIndex`` of ints by the cell rule: raises for a
    cell that is no pair, then for its first coordinate that equals no int
    in int64, naming it."""
    try:
        parts = tuple(cell)
    except TypeError:
        parts = ()
    if len(parts) != 2:
        raise ParameterError(f"{name} must be a (row, col) pair, got {cell!r}")
    for part, v in zip(("row", "col"), parts):
        if oracle_int64(v) is None:
            raise ParameterError(f"{name} {part} must equal an integer within int64, got {v!r}")
    return CellIndex(*map(oracle_int64, parts))


def oracle_focus_cells(foci):
    """Each focus's cell by the cell rule (``oracle_cell``), every focus
    converted before any is checked, so the first fault in input order raises."""
    return [oracle_cell("focus", fp.cell) for fp in foci]


def oracle_focus_seeds(field, foci):
    """The anchor table and padded flat seed indices of the foci, converted
    first (``oracle_focus_cells``), then checked one focus at a time; raises
    for the first focus off the grid, on a masked cell or on the cell of an
    earlier focus."""
    keys, width, _ = _padded_keys(field, "maxima")
    geom, valid = field.geometry, keys < np.inf
    anchors, seed_cells, seen = {}, [], set()
    for i, cell in enumerate(oracle_focus_cells(foci)):
        r, c = cell
        if not geom.contains(r, c):
            raise ParameterError(f"focus {cell} outside the grid")
        p = (r + 1) * width + c + 1
        if not valid[p]:
            raise ParameterError(f"focus {cell} lies on a masked cell")
        if p in seen:
            raise ParameterError(f"duplicate focus cell {cell}")
        seen.add(p)
        anchors[i] = cell
        seed_cells.append(p)
    return anchors, seed_cells


def oracle_cell_cores(zm, core_of):
    """Each flat cell's core: ``core_of`` of its zone's anchor, one call per
    anchor, -1 for an unlabeled cell or a label without an anchor."""
    labels = sorted(label for label in zm.anchors if label >= 0)
    ids = np.array([-1] + [core_of(zm.anchors[label]) for label in labels], dtype=np.intp)
    keys = np.array([-1] + labels, dtype=np.int64)
    flat = zm.labels.ravel()
    slot = np.searchsorted(keys, flat, side="right") - 1
    return np.where(keys[slot] == flat, ids[slot], -1)


def table_cell_cores(zm, cores, nearest):
    """The library's translation of ``zm`` to the ids of ``cores`` through
    their flat cell-to-core table, ``nearest`` for anchors outside them; the
    members are read by the cell rule as the consensus reads them."""
    members = _cell_arrays("core member", [c for core in cores for c in core.member_cells])
    owner = np.repeat([core.id for core in cores], [len(core.member_cells) for core in cores])
    return _cell_cores(zm, _core_table(members, owner, zm.geometry), nearest)


def oracle_member_cores(cores, geom):
    """Each member's cell of ``geom``, read by the cell rule, to its core,
    the first listed for a cell of several; a member off the grid is left out."""
    member_to_core = {}
    for core in cores:
        for cell in core.member_cells:
            cell = oracle_cell("core member", cell)
            if geom.contains(*cell):
                member_to_core.setdefault(cell, core.id)
    return member_to_core


def oracle_nearest_core(cores):
    """The core with the Chebyshev-nearest member, ties to the smaller id, in
    Python ints; members are read by the cell rule."""
    members = [(oracle_cell("core member", cell), core.id)
               for core in cores for cell in core.member_cells]
    return lambda anchor: min((chebyshev(anchor, cell), cid) for cell, cid in members)[1]


def oracle_consensus_core_of(cores, geom):
    """The per-anchor lookup of the consensus: the anchor is read by the cell
    rule, then takes the core holding it on the grid, else the core with the
    Chebyshev-nearest member."""
    member_to_core, nearest = oracle_member_cores(cores, geom), oracle_nearest_core(cores)

    def core_of(anchor):
        anchor = oracle_cell("anchor", anchor)
        return member_to_core[anchor] if anchor in member_to_core else nearest(anchor)

    return core_of


def oracle_group_cells(cells, max_dist):
    parent = list(range(len(cells)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if chebyshev(cells[i], cells[j]) <= max_dist:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i, cell in enumerate(cells):
        groups.setdefault(find(i), []).append(cell)
    return [sorted(g) for g in groups.values()]


def scipy_components(n, heads, tails):
    graph = coo_matrix((np.ones(len(heads)), (heads, tails)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def assert_components_named_by_roots(got, n, heads, tails):
    """``got`` partitions the nodes exactly as scipy does, and labels each
    node by the smallest node of its component (its root)."""
    assert np.array_equal(np.unique(got, return_inverse=True)[1], scipy_components(n, heads, tails))
    assert np.array_equal(got[got], got)
    assert (got <= np.arange(n)).all()


def scipy_close_pairs(cells, radius):
    pairs = cKDTree(cells).query_pairs(radius, p=np.inf, output_type="ndarray")
    return sorted(map(tuple, pairs.tolist()))


def scipy_group_cells(cells, max_dist):
    pairs = np.array(scipy_close_pairs(cells, max_dist), dtype=np.intp).reshape(-1, 2)
    component = scipy_components(len(cells), pairs[:, 0], pairs[:, 1])
    groups = {}
    for cell, k in zip(cells, component.tolist()):
        groups.setdefault(k, []).append(cell)
    return list(groups.values())


def oracle_watershed(field, foci, orientation):
    values, mask = field.values, field.mask
    sign = -1.0 if orientation == "maxima" else 1.0
    labels = np.full(values.shape, -1, dtype=np.int32)
    heap = []
    seq = 0
    for i, fp in enumerate(foci):
        r, c = fp.cell
        heapq.heappush(heap, (sign * values[r, c], r, c, seq, i))
        seq += 1
    nrows, ncols = values.shape
    while heap:
        _, r, c, _, lab = heapq.heappop(heap)
        if labels[r, c] != -1:
            continue
        labels[r, c] = lab
        for dr, dc in NEIGHBOR_OFFSETS:
            nr, nc = r + dr, c + dc
            if 0 <= nr < nrows and 0 <= nc < ncols and mask[nr, nc] and labels[nr, nc] == -1:
                heapq.heappush(heap, (sign * values[nr, nc], nr, nc, seq, lab))
                seq += 1
    return labels


def heap_watershed(field, foci, orientation, pops=None):
    """The priority flood with one heap entry per cell: a popped cell labels
    and queues each open neighbor not yet labeled.  The foci are converted
    first (``oracle_focus_cells``) and then checked one at a time.  Popped
    flat indices of the padded key grid are appended to ``pops`` when it is
    given."""
    keys, width, offsets = _padded_keys(field, orientation)
    if not foci:
        raise ParameterError("watershed requires at least one focus")
    geom = field.geometry

    # -1: open and unlabeled; -2: closed (masked or padding).
    labels = np.where(keys < np.inf, -1, -2).tolist()
    key_of = keys.tolist()
    anchors = {}
    heap = []
    for i, cell in enumerate(oracle_focus_cells(foci)):
        r, c = cell
        if not geom.contains(r, c):
            raise ParameterError(f"focus {cell} outside the grid")
        p = (r + 1) * width + c + 1
        if labels[p] == -2:
            raise ParameterError(f"focus {cell} lies on a masked cell")
        if labels[p] != -1:
            raise ParameterError(f"duplicate focus cell {cell}")
        labels[p] = i
        anchors[i] = cell
        heap.append((key_of[p], p))
    heapq.heapify(heap)

    while heap:
        _, p = heapq.heappop(heap)
        if pops is not None:
            pops.append(p)
        lab = labels[p]
        for off in offsets:
            q = p + off
            if labels[q] == -1:
                labels[q] = lab
                heapq.heappush(heap, (key_of[q], q))
    grid = np.array(labels, dtype=np.int32).reshape(-1, width)[1:-1, 1:-1]
    return ZoneMap(geom, np.maximum(grid, -1), anchors)


def oracle_sorted_pop_order(grid, seeds):
    """The flood's pop order with a heap replayed from every plateau cell that
    is a seed or has a more extreme neighbor, or None when the seeds miss a
    regional extremum.  Each level's other cells merge into the replay by
    flat index, a plateau cell sorting at the largest flat index popped so
    far on its level."""
    keys, offsets = grid.keys, grid.offsets
    valid = keys < np.inf
    entered = grid.beaten.copy()
    entered[seeds] = True
    plateau = np.zeros(keys.size, dtype=bool)
    plateau[grid.heads] = True
    plateau[grid.tails] = True
    plateau &= valid
    if (valid & ~plateau & ~entered).any():
        return None
    starts = np.flatnonzero(plateau & entered).tolist()
    replay = _flood_order(keys.tolist(), (~plateau).tolist(), starts, offsets, True)
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


def oracle_build_cores(table, mode, radius, yearly_zones):
    cells = sorted(table.counts)
    groups = oracle_group_cells(cells, 1 if mode == "cc" else radius)
    anchor_zone_cells = {c: [] for c in cells}
    for zm in yearly_zones:
        for label, anchor in zm.anchors.items():
            if anchor in anchor_zone_cells:
                anchor_zone_cells[anchor].append(cells_of(zm, label))
    cores = []
    key = lambda g: (-max(table.counts[c] for c in g), g[0])  # noqa: E731
    for i, group in enumerate(sorted(groups, key=key)):
        extent = set(group)
        for member in group:
            for zone_cells in anchor_zone_cells[member]:
                extent.update(zone_cells)
        cores.append(
            Core(
                id=i,
                member_cells=tuple(group),
                member_counts=tuple(table.counts[c] for c in group),
                total_years=table.total_years,
                mode=mode,
                radius=radius if mode == "cr" else None,
                dominance=None,
                extent=frozenset(extent),
            )
        )
    return cores


def oracle_translate_to_cores(zm, cores):
    member_to_core = {}
    for core in cores:
        for cell in core.member_cells:
            member_to_core.setdefault(cell, core.id)
    if not zm.anchors:
        return np.full(zm.labels.shape, -1, dtype=np.int32)
    lut = {}
    for label in sorted(zm.anchors):
        anchor = zm.anchors[label]
        cid = member_to_core.get(anchor)
        if cid is None:
            cid = min(
                (min(chebyshev(anchor, m) for m in core.member_cells), core.id)
                for core in cores
            )[1]
        lut[label] = cid
    return np.vectorize(lambda v: lut.get(v, -1), otypes=[np.int32])(zm.labels)


def oracle_consensus_labels(yearly_zones, cores, translate=oracle_translate_to_cores):
    shape = yearly_zones[0].geometry.shape
    ncores = len(cores)
    votes = np.zeros((ncores,) + shape, dtype=np.int32)
    for zm in yearly_zones:
        translated = translate(zm, cores).reshape(shape)
        for cid in range(ncores):
            votes[cid] += translated == cid
    winner = votes.argmax(axis=0).astype(np.int32)
    return np.where(votes.sum(axis=0) > 0, winner, -1)


cell_sets = st.sets(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=60
)
radii = st.integers(1, 4)
orientations = st.sampled_from(["maxima", "minima"])


@st.composite
def tie_heavy_stacks(draw, max_years=5):
    """Integer-valued years (few distinct values) over one grid and random mask."""
    shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    years = draw(st.integers(1, max_years))
    values = draw(hnp.arrays(np.int8, (years,) + shape, elements=st.integers(0, 3)))
    mask = draw(hnp.arrays(np.bool_, shape, elements=st.sampled_from([True, True, True, False])))
    return values.astype(float), mask


@st.composite
def tie_heavy_fields(draw):
    """One field over a random mask, its values from {-1, -0.0, 0.0, 1, 2} (so
    equal keys include signed zeros) or small integers."""
    shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    choices = draw(st.sampled_from([[-1.0, -0.0, 0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]]))
    values = draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(choices)))
    mask = draw(hnp.arrays(np.bool_, shape, elements=st.sampled_from([True, True, True, False])))
    return values, mask


class Drawn:
    """Stands in for ``st.data()`` in an ``@example``: every draw returns ``value``."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy, label=None):
        return self.value


@st.composite
def edge_lists(draw):
    """A node count and edges among its nodes, self-loops and repeats allowed."""
    n = draw(st.integers(1, 40))
    nodes = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(nodes, nodes), max_size=80))


@st.composite
def cell_layouts(draw):
    """Distinct cells in one to three clusters placed anywhere in the int32
    range, or squeezed onto one row or one column, in drawn order."""
    corner = st.tuples(st.integers(-(2**31), 2**31 - 13), st.integers(-(2**31), 2**31 - 13))
    box = st.tuples(st.integers(0, 12), st.integers(0, 12))
    cells = set()
    for r0, c0 in draw(st.lists(corner, min_size=1, max_size=3)):
        cells |= {(r0 + r, c0 + c) for r, c in draw(st.sets(box, min_size=1, max_size=30))}
    layout = draw(st.sampled_from(["plane", "row", "column"]))
    if layout == "row":
        cells = {(7, c) for _, c in cells}
    elif layout == "column":
        cells = {(r, 7) for r, _ in cells}
    return draw(st.permutations(sorted(cells)))


@given(graph=edge_lists())
@example(graph=(1, []))
@example(graph=(1, [(0, 0)]))
@example(graph=(4, []))
@example(graph=(5, [(3, 1), (1, 3), (3, 1), (2, 2), (4, 0), (4, 0)]))
def test_components_match_scipy(graph):
    n, edges = graph
    heads = np.array([h for h, _ in edges], dtype=np.intp)
    tails = np.array([t for _, t in edges], dtype=np.intp)
    assert_components_named_by_roots(_components(n, heads, tails), n, heads, tails)


def test_components_match_scipy_on_long_shuffled_paths():
    rng = np.random.default_rng(0)
    for n in (2, 100, 5000):
        path = rng.permutation(n)
        heads, tails = path[:-1], path[1:]
        # cut the path into pieces so several components remain
        keep = rng.random(n - 1) < 0.99
        heads, tails = heads[keep], tails[keep]
        assert_components_named_by_roots(_components(n, heads, tails), n, heads, tails)


@given(cells=cell_layouts(), radius=st.integers(1, 6))
@example(cells=[(0, 0)], radius=1)
@example(cells=[(10**6, 3)], radius=6)
@example(cells=[(0, 0), (7, 10**6), (10**6, 2)], radius=10**9)
@example(cells=[(0, 0), (7, 10**6), (10**6, 2)], radius=2**40)
@example(cells=[(0, 0), (2**31 - 1, 2**31 - 1), (2**31 - 1, 0)], radius=2**31)
def test_close_pairs_match_query_pairs(cells, radius):
    cells = np.array(cells, dtype=np.int64)
    heads, tails = _close_pairs(cells, radius)
    got = sorted(zip(np.minimum(heads, tails).tolist(), np.maximum(heads, tails).tolist()))
    assert got == scipy_close_pairs(cells, radius)


def one_count_table(cells):
    """A table of ``cells``, in the order given, each seen once in one year."""
    return FocusFrequencyTable(dict.fromkeys(map(CellIndex._make, cells), 1), 1, 1)


def grouped(cells, radius):
    """The members of each CR core that ``build_cores`` makes of ``cells``."""
    return [list(core.member_cells) for core in build_cores(one_count_table(cells), "cr", radius)]


@given(cells=cell_layouts(), radius=st.integers(1, 6))
def test_grouping_matches_scipy_version(cells, radius):
    # With one count per cell, the cores come in the order of their first cell.
    assert grouped(cells, radius) == sorted(map(sorted, scipy_group_cells(cells, radius)))


@given(cells=cell_sets, radius=radii)
def test_grouping_matches_union_find(cells, radius):
    cells = sorted(CellIndex(*c) for c in cells)
    assert grouped(cells, radius) == sorted(oracle_group_cells(cells, radius))


@st.composite
def cells_beyond_int32(draw):
    """Up to seven cells of int32 coordinates and, at a drawn place among
    them, one with a coordinate beyond int32 but within int64."""
    near = st.integers(-3, 3) | st.integers(-(2**31), 2**31 - 1)
    far = (st.sampled_from([-(2**63), -(2**31) - 1, 2**31, 2**63 - 1])
           | st.integers(2**31, 2**63 - 1) | st.integers(-(2**63), -(2**31) - 1))
    cells = draw(st.lists(st.tuples(near, near), max_size=6))
    cell = draw(st.tuples(far, near) | st.tuples(near, far) | st.tuples(far, far))
    cells.insert(draw(st.integers(0, len(cells))), cell)
    return cells


@given(cells=cells_beyond_int32(), mode=st.sampled_from(["cc", "cr"]), radius=radii)
# Close pairs are exact for int32 cells only: these grouped 2**63 - 1 with
# -(2**63), split two 8-adjacent cells and overflowed a window centre.
@example(cells=[(0, -(2**63)), (0, -(2**63) + 1), (0, 2**63 - 1)], mode="cc", radius=1)
@example(cells=[(-(2**63), 0), (2**63 - 2, 0), (2**63 - 1, 0)], mode="cc", radius=1)
@example(
    cells=[(-4204063049539262747, 2), (0, 0), (1, 4093011707372762161), (2, 0), (0, 2),
           (2, -2320288992924720071)],
    mode="cr",
    radius=2,
)
def test_grouping_refuses_table_keys_beyond_int32(cells, mode, radius):
    table = one_count_table(cells)
    first = next(c for c in table.counts if not all(-(2**31) <= v < 2**31 for v in c))
    named = re.escape(f"core grouping takes cells within int32, got table key {first}") + "$"
    with pytest.raises(ParameterError, match=named):
        build_cores(table, mode, radius)


@given(stack=tie_heavy_stacks(max_years=1), orientation=orientations, data=st.data())
# The seeds miss the unseeded minimum plateau [1, 1] above the seed's level;
# a flood over equal keys must not reach it from the plateau [2, 2, 2].
@example(
    stack=(np.array([[[1.0], [1.0], [2.0], [2.0], [2.0]]]), np.ones((5, 1), dtype=bool)),
    orientation="minima",
    data=Drawn([CellIndex(3, 0)]),
)
def test_watershed_matches_pop_time_labelling(stack, orientation, data):
    values, mask = stack[0][0], stack[1]
    unmasked = [CellIndex(int(r), int(c)) for r, c in np.argwhere(mask)]
    if not unmasked:
        return
    field = make_field(values, mask=mask)
    seeds = data.draw(st.lists(st.sampled_from(unmasked), min_size=1, unique=True))
    foci = [FocusPoint(cell, 0, float(values[cell])) for cell in seeds]
    detected = detect_focus_points(field, orientation)
    for fs in (foci, detected):
        if fs:
            got = watershed_zones(field, fs, orientation).labels
            assert np.array_equal(got, oracle_watershed(field, fs, orientation))


@given(case=tie_heavy_fields(), orientation=orientations, data=st.data())
def test_sorted_pop_order_matches_the_heap(case, orientation, data):
    values, mask = case
    field = make_field(values, mask=mask)
    if not mask.any():
        return
    detected = detect_focus_points(field, orientation)
    open_cells = [CellIndex(int(r), int(c)) for r, c in np.argwhere(mask)]
    extra = data.draw(st.sets(st.sampled_from(open_cells)))
    extra -= {fp.cell for fp in detected}
    more = [*detected, *(FocusPoint(cell, 0, float(values[cell])) for cell in sorted(extra))]
    grid = _key_grid(field, orientation)
    for foci in (detected, more):
        if not foci:
            continue
        pops = []
        expected = heap_watershed(field, foci, orientation, pops)
        seeds = np.array([(r + 1) * grid.width + c + 1 for r, c in (fp.cell for fp in foci)])
        order = _sorted_pop_order(grid, seeds)
        assert order is not None
        assert order.tolist() == pops
        got = watershed_zones(field, foci, orientation)
        assert np.array_equal(got.labels, expected.labels)
        assert got.anchors == expected.anchors


def column(*values):
    """A one-column field over an open mask, as ``tie_heavy_fields`` draws it."""
    return np.array(values).reshape(-1, 1), np.ones((len(values), 1), dtype=bool)


@given(case=tie_heavy_fields(), orientation=orientations, data=st.data())
# Under minima a cell's key is its value; "late" cells are plateau cells that
# are neither seeds nor next to a smaller value.
# (2, 0) and (3, 0) are late; (3, 0) is reached only through (2, 0).
@example(case=column(0.0, 1.0, 1.0, 1.0), orientation="minima", data=Drawn([CellIndex(0, 0)]))
# Two level-1 plateaus (columns 0 and 2), entered at (1, 0) and (2, 2); their
# replays interleave, and (1, 2) and (0, 2) sort behind (2, 2).
@example(
    case=(
        np.array([[0, 2, 1], [1, 2, 1], [1, 2, 1], [1, 2, 0]], dtype=float),
        np.ones((4, 3), dtype=bool),
    ),
    orientation="minima",
    data=Drawn([CellIndex(0, 0), CellIndex(3, 2)]),
)
# (0, 0) is late and above (1, 0), which queues it.
@example(case=column(1.0, 1.0, 0.0), orientation="minima", data=Drawn([CellIndex(2, 0)]))
# A plateau of 0.0 and -0.0: (1, 0) is late and above (2, 0), which queues it.
@example(
    case=column(0.0, -0.0, 0.0, -1.0), orientation="minima", data=Drawn([CellIndex(3, 0)])
)
# The seeds miss the minimum plateau [1, 1]: every heap gives None.
@example(
    case=column(1.0, 1.0, 2.0, 2.0, 2.0), orientation="minima", data=Drawn([CellIndex(3, 0)])
)
def test_sorted_pop_order_matches_the_oracle(case, orientation, data):
    values, mask = case
    field = make_field(values, mask=mask)
    if not mask.any():
        return
    open_cells = [CellIndex(int(r), int(c)) for r, c in np.argwhere(mask)]
    drawn = data.draw(st.lists(st.sampled_from(open_cells), min_size=1, unique=True))
    detected = [fp.cell for fp in detect_focus_points(field, orientation)]
    grid = _key_grid(field, orientation)
    for cells in (drawn, sorted(set(drawn) | set(detected))):
        seeds = np.array([(r + 1) * grid.width + c + 1 for r, c in cells])
        expected = oracle_sorted_pop_order(grid, seeds)
        got = _sorted_pop_order(grid, seeds)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got.tolist() == expected.tolist()


@given(case=tie_heavy_fields(), data=st.data())
# Coordinates beyond int64 are refused, before any focus is checked against
# the grid.
@example(
    case=(np.zeros((2, 2)), np.array([[False, True], [True, True]])),
    data=Drawn([CellIndex(2**70, 0)]),
)
@example(
    case=(np.zeros((2, 2)), np.array([[False, True], [True, True]])),
    data=Drawn([CellIndex(0, 0), CellIndex(2**70, 0)]),
)
def test_focus_errors_match_the_heap_version(case, data):
    values, mask = case
    field = make_field(values, mask=mask)
    nrows, ncols = mask.shape
    cell = st.builds(CellIndex, st.integers(-1, nrows), st.integers(-1, ncols))
    cells = data.draw(st.lists(cell, max_size=6))
    foci = [FocusPoint(c, 0, 0.0) for c in cells]
    try:
        expected = heap_watershed(field, foci, "maxima")
    except ParameterError as exc:
        with pytest.raises(ParameterError) as got:
            watershed_zones(field, foci, "maxima")
        assert str(got.value) == str(exc)
    else:
        got = watershed_zones(field, foci, "maxima")
        assert np.array_equal(got.labels, expected.labels)
        assert got.anchors == expected.anchors


@given(
    stack=tie_heavy_stacks(),
    orientation=orientations,
    mode=st.sampled_from(["cc", "cr"]),
    radius=radii,
)
# Core ids go by decreasing maximum count, then by first cell: the core of
# (0, 4) (count 2) comes before that of (0, 0) (count 1), and the core of
# (0, 0) and (1, 1) before that of (0, 3), though its last cell comes after.
@example(
    stack=(np.array([[[2.0, 0, 0, 0, 1]], [[0.0, 0, 0, 0, 1]]]), np.ones((1, 5), dtype=bool)),
    orientation="maxima", mode="cc", radius=1,
)
@example(
    stack=(np.array([[[3.0, 0, 0, 3, 0], [0, 0, 0, 0, 0]], [[0.0, 0, 0, 0, 0], [0, 3, 0, 0, 0]]]),
           np.ones((2, 5), dtype=bool)),
    orientation="maxima", mode="cc", radius=1,
)
def test_extents_and_consensus_match_loop_versions(stack, orientation, mode, radius):
    values, mask = stack
    if not mask.any():
        return
    yearly_foci, yearly_zones = [], []
    for year, year_values in enumerate(values):
        field = make_field(year_values, mask=mask)
        foci = detect_focus_points(field, orientation, year=year)
        yearly_foci.append(foci)
        if foci:
            yearly_zones.append(watershed_zones(field, foci, orientation))
        else:
            yearly_zones.append(ZoneMap(field.geometry, np.full(mask.shape, -1), {}))
    table = mine_frequent_foci(yearly_foci, len(values), 1)
    cores = build_cores(table, mode, radius, yearly_zones)
    assert cores == oracle_build_cores(table, mode, radius, yearly_zones)
    if cores:
        got = consensus_zone_map(yearly_zones, cores).labels
        assert np.array_equal(got, oracle_consensus_labels(yearly_zones, cores))


@st.composite
def foreign_cores(draw, shape):
    """Cores whose members are drawn cells of ``shape``, listed in a drawn
    order: members may be shared between cores and anchors may lie outside
    every core."""
    cells = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
    n = draw(st.integers(1, 4))
    ids = draw(st.permutations(range(n)))
    cores = []
    for cid in ids:
        members = sorted(draw(st.sets(cells, min_size=1, max_size=4)))
        cores.append(
            Core(
                id=cid,
                member_cells=tuple(CellIndex(*m) for m in members),
                member_counts=(1,) * len(members),
                total_years=1,
                mode="cc",
                radius=None,
                dominance=None,
                extent=frozenset(),
            )
        )
    return cores


@given(stack=tie_heavy_stacks(), orientation=orientations, data=st.data())
def test_consensus_with_foreign_cores_matches_loop_translation(stack, orientation, data):
    values, mask = stack
    if not mask.any():
        return
    yearly_zones = []
    for year_values in values:
        field = make_field(year_values, mask=mask)
        foci = detect_focus_points(field, orientation)
        if foci:
            yearly_zones.append(watershed_zones(field, foci, orientation))
    if not yearly_zones:
        return
    cores = data.draw(foreign_cores(mask.shape))
    got = consensus_zone_map(yearly_zones, cores).labels
    assert np.array_equal(got, oracle_consensus_labels(yearly_zones, cores))


@given(stack=tie_heavy_stacks(), orientation=orientations, data=st.data())
def test_consensus_with_unanchored_labels_matches_loop_translation(stack, orientation, data):
    values, mask = stack
    if not mask.any():
        return
    yearly_zones = []
    for year_values in values:
        field = make_field(year_values, mask=mask)
        foci = detect_focus_points(field, orientation)
        if foci:
            zm = watershed_zones(field, foci, orientation)
            kept = data.draw(st.sets(st.sampled_from(sorted(zm.anchors))))
            yearly_zones.append(ZoneMap(zm.geometry, zm.labels, {k: zm.anchors[k] for k in kept}))
    if not yearly_zones:
        return
    cores = data.draw(foreign_cores(mask.shape))
    got = consensus_zone_map(yearly_zones, cores).labels
    assert np.array_equal(got, oracle_consensus_labels(yearly_zones, cores))


@st.composite
def sparse_relabelings(draw, zm):
    """``zm`` with each zone label moved to a distinct drawn label up to
    int32 max; some anchors may be dropped."""
    old = sorted(zm.anchors)
    new = draw(st.lists(st.integers(0, 2**31 - 1), min_size=len(old), max_size=len(old),
                        unique=True))
    lut = dict(zip(old, new))
    labels = np.vectorize(lambda v: lut.get(v, -1), otypes=[np.int64])(zm.labels)
    kept = draw(st.sets(st.sampled_from(old))) if old else set()
    return ZoneMap(zm.geometry, labels, {lut[k]: zm.anchors[k] for k in kept})


@given(
    stack=tie_heavy_stacks(),
    orientation=orientations,
    mode=st.sampled_from(["cc", "cr"]),
    radius=radii,
    data=st.data(),
)
def test_cores_and_consensus_with_sparse_large_labels_match_loop_versions(
    stack, orientation, mode, radius, data
):
    values, mask = stack
    if not mask.any():
        return
    yearly_foci, yearly_zones = [], []
    for year, year_values in enumerate(values):
        field = make_field(year_values, mask=mask)
        foci = detect_focus_points(field, orientation, year=year)
        yearly_foci.append(foci)
        if foci:
            zm = watershed_zones(field, foci, orientation)
            yearly_zones.append(data.draw(sparse_relabelings(zm)))
        else:
            yearly_zones.append(ZoneMap(field.geometry, np.full(mask.shape, -1), {}))
    table = mine_frequent_foci(yearly_foci, len(values), 1)
    cores = build_cores(table, mode, radius, yearly_zones)
    assert cores == oracle_build_cores(table, mode, radius, yearly_zones)
    for used in ([cores] if cores else []) + [data.draw(foreign_cores(mask.shape))]:
        got = consensus_zone_map(yearly_zones, used).labels
        assert np.array_equal(got, oracle_consensus_labels(yearly_zones, used))


@settings(max_examples=40)
@given(stack=tie_heavy_stacks(), orientation=orientations)
def test_run_mistic_zones_label_exactly_the_mask_in_years_with_foci(stack, orientation):
    # Every connected part of the domain holds an unbeaten plateau, hence a
    # focus, unless one plateau spans the whole domain and there is none.
    values, mask = stack
    if not mask.any():
        return
    fields = tuple(make_field(v, mask=mask, units=CELSIUS) for v in values)
    years = tuple(range(2000, 2000 + len(fields)))
    annual = AnnualMeanStack(fields[0].geometry, CELSIUS, years, fields, mask)
    res = run_mistic(annual, MisticParams(orientation=orientation, min_years=1))
    for year in years:
        if res.yearly_foci[year]:
            assert np.array_equal(res.yearly_zones[year].labels >= 0, mask)


ODD_COORDS = [
    1.5, 1.0, True, False, np.True_, "1", np.int64(1), 2**70, -(2**70), 2**63, -(2**63),
]


def focus_cells(shape):
    """Cells of Python ints in and around a grid of ``shape``, now and then
    with a coordinate of another type, as tuples or as ``CellIndex``."""
    coord = st.one_of(st.integers(-1, max(shape)), st.sampled_from(ODD_COORDS))
    cell = st.tuples(st.integers(-1, shape[0]), st.integers(-1, shape[1])) | st.tuples(coord, coord)
    return cell | cell.map(lambda c: CellIndex(*c))


def coordinate_types(anchors):
    return {label: tuple(map(type, cell)) for label, cell in anchors.items()}


GRID_3X3 = np.arange(9.0).reshape(3, 3)
MASK_3X3 = np.array([[True, True, True], [True, False, True], [True, True, True]])


@given(case=tie_heavy_fields(), data=st.data())
# A float, a bool, a digit string, a numpy int and a coordinate beyond int64;
# then a duplicate focus, a focus on the masked centre, cells of three and
# one coordinates, and a cell that is None.
@example(case=(GRID_3X3, MASK_3X3), data=Drawn([(1.5, 0)]))
@example(case=(GRID_3X3, MASK_3X3), data=Drawn([CellIndex(0, 0), (True, 0)]))
@example(case=(GRID_3X3, MASK_3X3), data=Drawn([("1", 0)]))
@example(case=(GRID_3X3, MASK_3X3), data=Drawn([(2, 2), CellIndex(np.int64(1), 0)]))
@example(case=(GRID_3X3, MASK_3X3), data=Drawn([(0, 1), (2**70, 0)]))
@example(case=(GRID_3X3, MASK_3X3), data=Drawn([(0, 1), (2, 0), CellIndex(0, 1)]))
@example(case=(GRID_3X3, MASK_3X3), data=Drawn([(0, 0), (1, 1)]))
@example(case=(GRID_3X3, MASK_3X3), data=Drawn([(0, 1, 2), (0,)]))
@example(case=(GRID_3X3, MASK_3X3), data=Drawn([(0, 0), None]))
def test_focus_cells_match_the_per_focus_checks(case, data):
    values, mask = case
    field = make_field(values, mask=mask)
    cells = data.draw(st.lists(focus_cells(mask.shape), min_size=1, max_size=6))
    foci = [FocusPoint(cell, 0, 0.0) for cell in cells]
    try:
        anchors, _ = oracle_focus_seeds(field, foci)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            watershed_zones(field, foci, "maxima")
        assert str(got.value) == str(exc)
    else:
        got = watershed_zones(field, foci, "maxima")
        assert got.anchors == anchors
        assert {type(cell) for cell in got.anchors.values()} == {CellIndex}
        assert coordinate_types(got.anchors) == coordinate_types(anchors)
        assert np.array_equal(got.labels, heap_watershed(field, foci, "maxima").labels)


@given(
    stack=tie_heavy_stacks(),
    orientation=orientations,
    mode=st.sampled_from(["cc", "cr"]),
    radius=radii,
    data=st.data(),
)
def test_bookkeeping_matches_the_per_focus_loops(stack, orientation, mode, radius, data):
    values, mask = stack
    if not mask.any():
        return
    yearly_foci, yearly_zones = [], []
    for year, year_values in enumerate(values):
        field = make_field(year_values, mask=mask)
        foci = detect_focus_points(field, orientation, year=year)
        yearly_foci.append(foci)
        if foci:
            yearly_zones.append(watershed_zones(field, foci, orientation))
    table = mine_frequent_foci(yearly_foci, len(values), 1)
    expected = oracle_mine_frequent_foci(yearly_foci, len(values), 1)
    assert list(table.counts.items()) == list(expected.counts.items())
    cores = build_cores(table, mode, radius, yearly_zones)
    assert cores == oracle_build_cores(table, mode, radius, yearly_zones)
    for used in ([cores] if cores else []) + [data.draw(foreign_cores(mask.shape))]:
        geom = planar_geom(*mask.shape)
        member_to_core = oracle_member_cores(used, geom)
        lookups = [(oracle_nearest_core(used), oracle_consensus_core_of(used, geom))]
        if used is cores:
            lookups.append((lambda a: -1, lambda a: member_to_core.get(a, -1)))
        for zm in yearly_zones:
            for nearest, oracle_core_of in lookups:
                got = table_cell_cores(zm, used, nearest)
                assert np.array_equal(got, oracle_cell_cores(zm, oracle_core_of))
        if yearly_zones:
            got = consensus_zone_map(yearly_zones, used).labels
            assert np.array_equal(got, oracle_consensus_labels(yearly_zones, used))


def numeric_cells(shape):
    """Cells on and off a grid of ``shape`` whose coordinates are Python ints
    or other numbers equal to one (1.0, True, ``np.int64(1)``), the ends of
    int64, or 1.5, or beyond int64."""
    odd = st.sampled_from([1.5, 1.0, True, np.int64(1), 2**70, -(2**63), 2**63 - 1])
    coord = st.one_of(st.integers(-1, max(shape)), odd)
    cells = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
    return st.one_of(cells, cells, st.tuples(coord, coord)).map(lambda c: CellIndex(*c))


def outcome(fn):
    """``fn()`` as ("value", result) or ("raises", type, message)."""
    try:
        return "value", fn().tolist()
    except Exception as exc:
        return "raises", type(exc), str(exc)


def per_anchor_translation(zm, cores):
    return oracle_cell_cores(zm, oracle_consensus_core_of(cores, zm.geometry))


@settings(max_examples=60)
@given(stack=tie_heavy_stacks(max_years=3), orientation=orientations, data=st.data())
def test_zone_to_core_lookup_with_odd_cells_matches_per_anchor_calls(stack, orientation, data):
    # Anchors and members are read by the cell rule (oracle_int64): a
    # coordinate equal to an int within int64 (1.0, True, np.int64(1), the
    # ends of int64) counts as that int, any other (1.5, 2**70) raises,
    # members before anchors.  An anchor outside every core or off the grid
    # takes the nearest member, in Python ints for the oracle.
    values, mask = stack
    if not mask.any():
        return
    shape = mask.shape
    yearly_zones = []
    for year_values in values:
        field = make_field(year_values, mask=mask)
        foci = detect_focus_points(field, orientation)
        if foci:
            zm = watershed_zones(field, foci, orientation)
            anchors = {k: data.draw(st.just(v) | numeric_cells(shape)) for k, v in zm.anchors.items()}
            yearly_zones.append(ZoneMap(zm.geometry, zm.labels, anchors))
    if not yearly_zones:
        return
    cores = [
        replace(core, member_cells=tuple(data.draw(st.just(c) | numeric_cells(shape))
                                         for c in core.member_cells))
        for core in data.draw(foreign_cores(shape))
    ]
    for zm in yearly_zones:
        assert outcome(
            lambda: table_cell_cores(zm, cores, oracle_nearest_core(cores))
        ) == outcome(lambda: oracle_cell_cores(zm, oracle_consensus_core_of(cores, zm.geometry)))
    assert outcome(lambda: consensus_zone_map(yearly_zones, cores).labels) == outcome(
        lambda: oracle_consensus_labels(yearly_zones, cores, per_anchor_translation)
    )


@st.composite
def focus_arrays(draw, shape):
    """A ``Foci`` of one to eight drawn cells of Python-int range in and around
    a grid of ``shape``, repeats allowed."""
    n = draw(st.integers(1, 8))
    rows = draw(hnp.arrays(np.int64, n, elements=st.integers(-2, shape[0] + 1)))
    cols = draw(hnp.arrays(np.int64, n, elements=st.integers(-2, shape[1] + 1)))
    return Foci(rows, cols, np.zeros(n), draw(st.integers(0, 3)))


def foci_of(rows, cols):
    return Foci(np.array(rows), np.array(cols), np.zeros(len(rows)))


@given(case=tie_heavy_fields(), data=st.data())
# A focus off the grid before a repeat, a repeat before a focus on the
# masked centre, and a masked focus before a repeat.
@example(case=(GRID_3X3, MASK_3X3), data=Drawn(foci_of([0, 5, 0], [0, 0, 0])))
@example(case=(GRID_3X3, MASK_3X3), data=Drawn(foci_of([0, 0, 1], [1, 1, 1])))
@example(case=(GRID_3X3, MASK_3X3), data=Drawn(foci_of([2, 1, 2], [2, 1, 2])))
def test_foci_arrays_match_the_per_focus_checks(case, data):
    values, mask = case
    field = make_field(values, mask=mask)
    foci = data.draw(focus_arrays(mask.shape))
    points = list(foci)
    try:
        anchors, _ = oracle_focus_seeds(field, points)
    except ParameterError as exc:
        with pytest.raises(ParameterError) as got:
            watershed_zones(field, foci, "maxima")
        assert str(got.value) == str(exc)
    else:
        got = watershed_zones(field, foci, "maxima")
        assert got.anchors == anchors
        assert {tuple(map(type, cell)) for cell in got.anchors.values()} == {(int, int)}
        assert np.array_equal(got.labels, heap_watershed(field, points, "maxima").labels)


@given(stack=tie_heavy_stacks(), orientation=orientations, data=st.data())
def test_mining_matches_the_counter(stack, orientation, data):
    # Detected foci, then drawn foci arrays with repeats and negative cells,
    # as Foci and as lists of focus points.
    values, mask = stack
    if not mask.any():
        return
    detected = [detect_focus_points(make_field(v, mask=mask), orientation, year=year)
                for year, v in enumerate(values)]
    drawn = detected + data.draw(st.lists(focus_arrays(mask.shape), max_size=3))
    for yearly in (detected, drawn, [list(foci) for foci in drawn]):
        total = max(1, sum(map(len, yearly)))
        table = mine_frequent_foci(yearly, total, 1)
        expected = oracle_counter_mine_frequent_foci(yearly, total, 1)
        assert list(table.counts.items()) == list(expected.counts.items())
        assert {type(c) for cell in table.counts for c in cell} <= {int}


def test_mining_counts_cells_far_apart():
    far = [CellIndex(-(2**62), 2**62), CellIndex(2**62, -(2**62)), CellIndex(0, 0)]
    yearly = [[FocusPoint(cell, 0, 0.0) for cell in far], [FocusPoint(far[1], 1, 0.0)]]
    table = mine_frequent_foci(yearly, 2, 1)
    assert list(table.counts.items()) == [(far[0], 1), (far[1], 2), (far[2], 1)]


@pytest.mark.parametrize("cell", [(1.0, 0), (True, 0), (np.float64(1.0), np.int8(0))])
def test_mining_counts_coordinates_equal_to_ints_as_the_counter(cell):
    # A cell equal to (1, 0) counts with it, as in the Counter, and the key
    # holds the ints.
    yearly = [
        [FocusPoint(cell, 0, 0.0), FocusPoint((0, 0), 0, 0.0)],
        foci_of([1, 0], [0, 0]),
        [FocusPoint(CellIndex(1, 0), 2, 0.0)],
    ]
    table = mine_frequent_foci(yearly, 3, 1)
    expected = oracle_counter_mine_frequent_foci(yearly, 3, 1)
    assert list(table.counts.items()) == list(expected.counts.items()) == [(cell, 3), ((0, 0), 2)]
    assert [tuple(map(type, c)) for c in table.counts] == [(int, int), (int, int)]


@pytest.mark.parametrize(
    "cell",
    [(0, 2.5), ("1", 0), (0, float("nan")), (float("inf"), 0), (2**63, 0), (0, -(2**63) - 1)],
)
def test_mining_refuses_coordinates_equal_to_no_int(cell):
    # An int beyond int64 is refused as well, not left to numpy's OverflowError.
    with pytest.raises(ParameterError, match="^focus (row|col) must equal an integer"):
        mine_frequent_foci([[FocusPoint((0, 0), 0, 0.0), FocusPoint(cell, 0, 0.0)]], 1, 1)


def test_cell_rule_refuses_a_watershed_focus_between_cells():
    # Read as a float, (1.5, 0) would seed padded flat index 2.5 * 5 + 1,
    # truncated to 13: the cell of the focus (1, 2), named as a duplicate.
    foci = [FocusPoint((1.5, 0), 0, 0.0), FocusPoint((1, 2), 0, 0.0)]
    named = r"^focus row must equal an integer within int64, got 1\.5$"
    with pytest.raises(ParameterError, match=named):
        watershed_zones(make_field(GRID_3X3), foci, "maxima")


@pytest.mark.parametrize(
    "counts, named",
    [
        ({(1.5, 0): 1}, r"^cell \(1\.5, 0\) row .* got 1\.5$"),
        ({CellIndex(0, 0): 2.5}, r"^count for CellIndex\(row=0, col=0\) .* got 2\.5$"),
        ({CellIndex(2**63, 0): 1}, r"^cell CellIndex\(row=9223372036854775808, col=0\) row "),
        ({CellIndex(0, -(2**63) - 1): 1}, r"^cell CellIndex\(row=0, col=-9223372036854775809\) col"),
        ({("1", 0): 1}, r"^cell \('1', 0\) row .* got '1'$"),
    ],
    ids=["key_between_cells", "count_between_ints", "row_past_int64", "col_past_int64",
         "digit_key"],
)
def test_cell_rule_refuses_table_keys_and_counts(counts, named):
    with pytest.raises(ParameterError, match=named):
        FocusFrequencyTable({CellIndex(1, 1): 1, **counts}, 3, 1)


def test_cell_rule_gives_table_keys_and_counts_as_ints():
    counts = {(True, np.int64(0)): np.int8(2), CellIndex(-(2**63), 2**63 - 1): 1.0}
    table = FocusFrequencyTable(counts, 3, 1)
    assert list(table.counts.items()) == [((1, 0), 2), ((-(2**63), 2**63 - 1), 1)]
    assert {type(c) for c in table.counts} == {CellIndex}
    assert {type(v) for cell, n in table.counts.items() for v in (*cell, n)} == {int}


@given(case=tie_heavy_fields(), data=st.data())
# A focus between cells before the cell it would truncate to; a coordinate
# beyond int64 behind one equal to 1; an int64 coordinate off the grid.
@example(case=(GRID_3X3, MASK_3X3), data=Drawn([(1.5, 0), (1, 2)]))
@example(case=(GRID_3X3, MASK_3X3), data=Drawn([(0, 1), (np.True_, 2**63)]))
@example(case=(GRID_3X3, MASK_3X3), data=Drawn([CellIndex(1.0, 0), (-(2**63), 1)]))
def test_cell_rule_is_one_for_watershed_mining_and_table(case, data):
    # ODD_COORDS through the watershed, mining and the table: each refuses
    # the first coordinate, in input order, that equals no int in int64
    # (oracle_int64), or reads every cell as the ints it equals.
    values, mask = case
    field = make_field(values, mask=mask)
    cells = data.draw(st.lists(focus_cells(mask.shape), min_size=1, max_size=6))
    foci = [FocusPoint(cell, 0, 0.0) for cell in cells]
    counts = dict.fromkeys(cells, 1)
    runs = [
        lambda: watershed_zones(field, foci, "maxima"),
        lambda: mine_frequent_foci([foci], len(foci), 1),
        lambda: FocusFrequencyTable(counts, len(foci), 1),
    ]
    refused = [v for cell in cells for v in cell if oracle_int64(v) is None]
    if refused:
        named = re.escape(f" must equal an integer within int64, got {refused[0]!r}") + "$"
        for run in runs:
            with pytest.raises(ParameterError, match=named):
                run()
        return
    ints = [CellIndex(*map(oracle_int64, cell)) for cell in cells]
    try:
        anchors, _ = oracle_focus_seeds(field, foci)
    except ParameterError as exc:
        with pytest.raises(ParameterError) as got:
            runs[0]()
        assert str(got.value) == str(exc)
    else:
        assert dict(runs[0]().anchors) == anchors == dict(enumerate(ints))
    mined, table = runs[1]().counts, runs[2]().counts
    assert list(mined.items()) == list(Counter(ints).items())
    assert list(table) == list(dict.fromkeys(ints))
    for got in (mined, table):
        assert {type(v) for cell in got for v in cell} == {int}


@given(stack=tie_heavy_stacks(max_years=3), orientation=orientations, data=st.data())
def test_zone_to_core_table_matches_the_dict(stack, orientation, data):
    # A watershed's anchors are arrays (a CellTable); the same anchors as a
    # dict take the other branch of the anchor slots.
    values, mask = stack
    if not mask.any():
        return
    for year_values in values:
        field = make_field(year_values, mask=mask)
        foci = detect_focus_points(field, orientation)
        if not foci:
            continue
        zm = watershed_zones(field, foci, orientation)
        # Zone 0 relabelled past the anchors: its cells have no anchor.
        stray = np.where(zm.labels == 0, len(foci) + 3, zm.labels)
        maps = [
            [ZoneMap(zm.geometry, labels, anchors) for anchors in (zm.anchors, dict(zm.anchors))]
            for labels in (zm.labels, stray)
        ]
        cores = data.draw(foreign_cores(mask.shape))
        member_to_core = oracle_member_cores(cores, zm.geometry)
        lookups = [
            (lambda a: -1, lambda a: member_to_core.get(a, -1)),
            (oracle_nearest_core(cores), oracle_consensus_core_of(cores, zm.geometry)),
        ]
        for nearest, core_of in lookups:
            for as_table, as_dict in maps:
                expected = oracle_cell_cores(as_dict, core_of)
                for anchored in (as_table, as_dict):
                    assert np.array_equal(table_cell_cores(anchored, cores, nearest), expected)


def member_core(cid, *cells):
    return Core(cid, cells, (1,) * len(cells), 1, "cc", None, None, frozenset())


def test_zone_to_core_refuses_an_anchor_between_cells():
    # Read as a float, (1.5, 0) would be no grid cell and take the nearest
    # member; it is refused, in core extents as in the consensus.
    zm = ZoneMap(planar_geom(1, 3), [[0, 0, 0]], {0: CellIndex(1.5, 0)})
    named = r"^anchor row must equal an integer within int64, got 1\.5$"
    with pytest.raises(ParameterError, match=named):
        build_cores(FocusFrequencyTable({CellIndex(0, 0): 1}, 1, 1), "cc", 1, [zm])
    with pytest.raises(ParameterError, match=named):
        consensus_zone_map([zm], [member_core(0, CellIndex(0, 0))])


@pytest.mark.parametrize(
    "member, named",
    [
        (CellIndex(1.5, 0), r"^core member row must equal an integer within int64, got 1\.5$"),
        (CellIndex(0, 2**63), r"^core member col must equal an integer within int64, got 9223"),
        ((0, 1, 2), r"^core member must be a \(row, col\) pair, got \(0, 1, 2\)$"),
    ],
    ids=["between_cells", "past_int64", "three_coordinates"],
)
def test_zone_to_core_refuses_a_member_that_is_no_cell(member, named):
    zm = ZoneMap(planar_geom(1, 3), [[0, 0, 0]], {0: CellIndex(0, 0)})
    cores = [member_core(0, CellIndex(0, 0)), member_core(1, member)]
    with pytest.raises(ParameterError, match=named):
        consensus_zone_map([zm], cores)


def test_zone_to_core_off_grid_anchor_takes_the_nearest_member():
    # (0, 5) is off the 1x3 grid and a member of cores 1 and 0, listed in
    # that order: the consensus takes the nearest member, tied at distance 0
    # to the smaller id, and a core extent takes no zone anchored off the grid.
    geom = planar_geom(1, 3)
    zm = ZoneMap(geom, [[0, 0, 0]], {0: CellIndex(0, 5)})
    cores = [member_core(1, CellIndex(0, 5)), member_core(0, CellIndex(0, 0), CellIndex(0, 5))]
    assert consensus_zone_map([zm], cores).labels.tolist() == [[0, 0, 0]]
    zm = ZoneMap(geom, [[0, 0, 1]], {0: CellIndex(0, 0), 1: CellIndex(0, 5)})
    table = FocusFrequencyTable({CellIndex(0, 0): 1, CellIndex(0, 5): 1}, 1, 1)
    cores = build_cores(table, "cc", 1, [zm])
    assert [sorted(core.extent) for core in cores] == [[(0, 0), (0, 1)], [(0, 5)]]


@pytest.mark.parametrize(
    "anchor, far, near",
    [
        ((3 * 2**61, 0), (-(2**63), 0), (0, 0)),
        ((2**63 - 1, 2**63 - 1), (-(2**63), -(2**63)), (2**62, 2**62)),
    ],
    ids=["wraps_past_int64_max", "spans_all_of_int64"],
)
def test_zone_to_core_nearest_member_is_exact_over_int64(anchor, far, near):
    # A difference in int64 wraps: 3 * 2**61 - -(2**63) reads as -(2**61),
    # nearer than the true nearest member at 3 * 2**61.
    zm = ZoneMap(planar_geom(1, 3), [[0, 0, 0]], {0: CellIndex(*anchor)})
    cores = [member_core(0, CellIndex(*far)), member_core(1, CellIndex(*near))]
    assert consensus_zone_map([zm], cores).labels.tolist() == [[1, 1, 1]]
    nearest = oracle_nearest_core(cores)
    assert nearest(anchor) == 1


@pytest.mark.parametrize("cell", [(0, 1, 2), (0,), None], ids=["three", "one", "none"])
def test_cell_rule_refuses_cells_that_are_no_pair(cell):
    # Each reader names the cell instead of Python's bare unpacking error.
    named = re.escape(f" must be a (row, col) pair, got {cell!r}") + "$"
    geom = planar_geom(3, 3)
    runs = [
        lambda: watershed_zones(make_field(GRID_3X3), [FocusPoint(cell, 0, 0.0)], "maxima"),
        lambda: mine_frequent_foci([[FocusPoint((0, 0), 0, 0.0), FocusPoint(cell, 0, 0.0)]], 1, 1),
        lambda: FocusFrequencyTable({CellIndex(0, 0): 1, cell: 1}, 1, 1),
        lambda: ZoneMap(geom, np.zeros((3, 3)), {0: cell}),
        lambda: consensus_zone_map([ZoneMap(geom, np.zeros((3, 3)), {0: CellIndex(0, 0)})],
                                   [member_core(0, CellIndex(0, 0), cell)]),
    ]
    for run in runs:
        with pytest.raises(ParameterError, match=named):
            run()
