"""Differential tests: the vectorised MiSTIC stages against their loop versions.

The oracles below are the earlier implementations of core grouping
(pairwise union-find, and scipy's ``cKDTree.query_pairs`` closed by
``connected_components``), connected components (``scipy.sparse.csgraph``),
watershed growth (label on first pop, stale entries skipped; and the
one-entry-per-cell heap flood, ``heap_watershed``, that labels on first
push), core extents (one ``ZoneMap.cells_of`` call per anchored zone),
consensus voting (one pass per core id) and the translation of zones to
cores (one ``chebyshev`` call per anchor and member for anchors outside
every core).  The library must reproduce them
exactly on every input.
"""

import heapq

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from gridclust.errors import ParameterError
from gridclust.gridcore import NEIGHBOR_OFFSETS, CellIndex, ZoneMap, chebyshev
from gridclust.mistic import (
    Core,
    FocusPoint,
    _close_pairs,
    _components,
    _group_cells,
    _padded_keys,
    _sorted_pop_order,
    build_cores,
    consensus_zone_map,
    detect_focus_points,
    mine_frequent_foci,
    watershed_zones,
)

from conftest import make_field


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
    and queues each open neighbor not yet labeled.  Popped flat indices of
    the padded key grid are appended to ``pops`` when it is given."""
    keys, width, offsets = _padded_keys(field, orientation)
    if not foci:
        raise ParameterError("watershed requires at least one focus")
    geom = field.geometry

    # -1: open and unlabeled; -2: closed (masked or padding).
    labels = np.where(keys < np.inf, -1, -2).tolist()
    key_of = keys.tolist()
    anchors = {}
    heap = []
    for i, fp in enumerate(foci):
        r, c = fp.cell
        if not geom.contains(r, c):
            raise ParameterError(f"focus {fp.cell} outside the grid")
        p = int((r + 1) * width + c + 1)
        if labels[p] == -2:
            raise ParameterError(f"focus {fp.cell} lies on a masked cell")
        if labels[p] != -1:
            raise ParameterError(f"duplicate focus cell {fp.cell}")
        labels[p] = i
        anchors[i] = CellIndex(r, c)
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


def oracle_build_cores(table, mode, radius, yearly_zones):
    cells = sorted(table.counts)
    groups = oracle_group_cells(cells, 1 if mode == "cc" else radius)
    anchor_zone_cells = {c: [] for c in cells}
    for zm in yearly_zones:
        for label, anchor in zm.anchors.items():
            if anchor in anchor_zone_cells:
                anchor_zone_cells[anchor].append(zm.cells_of(label))
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


def oracle_consensus_labels(yearly_zones, cores):
    shape = yearly_zones[0].geometry.shape
    ncores = len(cores)
    votes = np.zeros((ncores,) + shape, dtype=np.int32)
    for zm in yearly_zones:
        translated = oracle_translate_to_cores(zm, cores)
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
    """Distinct cells in one to three clusters placed anywhere in a square of
    side 10**6, or squeezed onto one row or one column, in drawn order."""
    corner = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))
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
    got = _components(n, heads, tails)
    assert np.array_equal(got, scipy_components(n, heads, tails))
    assert np.array_equal(np.unique(got), np.arange(got.max() + 1))


def test_components_match_scipy_on_long_shuffled_paths():
    rng = np.random.default_rng(0)
    for n in (2, 100, 5000):
        path = rng.permutation(n)
        heads, tails = path[:-1], path[1:]
        # cut the path into pieces so several components remain
        keep = rng.random(n - 1) < 0.99
        heads, tails = heads[keep], tails[keep]
        assert np.array_equal(_components(n, heads, tails), scipy_components(n, heads, tails))


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


@given(cells=cell_layouts(), radius=st.integers(1, 6))
def test_grouping_matches_scipy_version(cells, radius):
    cells = [CellIndex(*c) for c in cells]
    assert _group_cells(cells, radius) == scipy_group_cells(cells, radius)


@given(cells=cell_sets, radius=radii)
def test_grouping_matches_union_find(cells, radius):
    cells = sorted(CellIndex(*c) for c in cells)
    got = sorted(_group_cells(cells, radius))
    assert got == sorted(oracle_group_cells(cells, radius))


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
    more = detected + [FocusPoint(cell, 0, float(values[cell])) for cell in sorted(extra)]
    keys, width, offsets = _padded_keys(field, orientation)
    for foci in (detected, more):
        if not foci:
            continue
        pops = []
        expected = heap_watershed(field, foci, orientation, pops)
        seeds = np.array([(r + 1) * width + c + 1 for r, c in (fp.cell for fp in foci)])
        order = _sorted_pop_order(keys, offsets, seeds)
        assert order is not None
        assert order.tolist() == pops
        got = watershed_zones(field, foci, orientation)
        assert np.array_equal(got.labels, expected.labels)
        assert got.anchors == expected.anchors


@given(case=tie_heavy_fields(), data=st.data())
# Coordinates beyond int64 are outside the grid, and earlier foci report first.
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
