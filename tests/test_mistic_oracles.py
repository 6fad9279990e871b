"""Differential tests: the vectorised MiSTIC stages against their loop versions.

The oracles below are the earlier implementations of core grouping
(pairwise union-find), watershed growth (label on first pop, stale entries
skipped), core extents (one ``ZoneMap.cells_of`` call per anchored zone),
consensus voting (one pass per core id) and the translation of zones to
cores (one ``chebyshev`` call per anchor and member for anchors outside
every core).  The library must reproduce them
exactly on every input.
"""

import heapq

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gridclust.gridcore import NEIGHBOR_OFFSETS, CellIndex, ZoneMap, chebyshev
from gridclust.mistic import (
    Core,
    FocusPoint,
    _group_cells,
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
    max_label = max(zm.anchors)
    lut = np.full(max_label + 2, -1, dtype=np.int32)
    for label in sorted(zm.anchors):
        anchor = zm.anchors[label]
        cid = member_to_core.get(anchor)
        if cid is None:
            cid = min(
                (min(chebyshev(anchor, m) for m in core.member_cells), core.id)
                for core in cores
            )[1]
        lut[label] = cid
    lab = zm.labels
    return np.where(lab >= 0, lut[np.clip(lab, 0, max_label)], -1).astype(np.int32)


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


@given(cells=cell_sets, radius=radii)
def test_grouping_matches_union_find(cells, radius):
    cells = sorted(CellIndex(*c) for c in cells)
    got = sorted(_group_cells(cells, radius))
    assert got == sorted(oracle_group_cells(cells, radius))


@given(stack=tie_heavy_stacks(max_years=1), orientation=orientations, data=st.data())
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
