"""Cross-method cluster comparison and per-cluster terrain/value summaries."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DomainError, ParameterError, ShapeMismatchError
from .gridcore import ScalarField, ZoneMap
from .ingest import AnnualMeanStack

ELEVATION_LOW_BAND_M = 1500.0
ELEVATION_HIGH_BAND_M = 2000.0


@dataclass(frozen=True)
class ContingencyTable:
    """Counts of jointly labeled cells per (label A, label B) pair."""

    labels_a: tuple[int, ...]
    labels_b: tuple[int, ...]
    counts: np.ndarray
    total: int
    only_a: int = 0
    only_b: int = 0

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64, copy=True)
        if counts.shape != (len(self.labels_a), len(self.labels_b)):
            raise ParameterError("counts shape must match the label lists")
        if counts.size and counts.min() < 0:
            raise ParameterError("counts must be non-negative")
        if int(counts.sum()) != self.total:
            raise ParameterError("grand total must equal the sum of counts")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def col_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def contingency(map_a: ZoneMap, map_b: ZoneMap) -> ContingencyTable:
    """Tabulate label co-occurrence over cells labeled in both maps.

    Cells carrying a label in only one map are excluded from the table and
    reported in the ``only_a``/``only_b`` coverage counters.  A fully
    disjoint pair yields a zero-total table plus a warning.
    """
    if map_a.geometry.shape != map_b.geometry.shape:
        raise ShapeMismatchError(
            f"geometry mismatch: {map_a.geometry.shape} vs {map_b.geometry.shape}"
        )
    la, lb = map_a.labels, map_b.labels
    joint = (la >= 0) & (lb >= 0)
    only_a = int(((la >= 0) & ~joint).sum())
    only_b = int(((lb >= 0) & ~joint).sum())
    labels_a, index_a = np.unique(la[joint], return_inverse=True)
    labels_b, index_b = np.unique(lb[joint], return_inverse=True)
    shape = (labels_a.size, labels_b.size)
    if not joint.any():
        warnings.warn("no jointly labeled cells; contingency table is empty")
    counts = np.bincount(index_a * shape[1] + index_b, minlength=shape[0] * shape[1])
    return ContingencyTable(
        tuple(labels_a.tolist()),
        tuple(labels_b.tolist()),
        counts.reshape(shape),
        int(joint.sum()),
        only_a,
        only_b,
    )


def adjusted_rand(table: ContingencyTable) -> float:
    """Chance-corrected agreement between the two partitions.

    ``(Index - Expected) / (Max - Expected)`` over pair counts, computed with
    exact integer combinatorics; defined as 0 when Max equals Expected.
    """
    n = table.total
    if n < 2:
        raise DomainError("adjusted Rand index needs at least 2 jointly labeled cells")
    index = sum(comb(int(v), 2) for v in table.counts.ravel())
    sum_a = sum(comb(int(v), 2) for v in table.row_totals())
    sum_b = sum(comb(int(v), 2) for v in table.col_totals())
    pairs = comb(n, 2)
    expected = sum_a * sum_b / pairs
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 0.0
    return (index - expected) / (maximum - expected)


def _linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of the rows of ``cost`` to distinct columns.

    A numpy port of the rectangular shortest-augmenting-path solver of
    ``scipy.optimize.linear_sum_assignment`` (Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016) that keeps its
    arithmetic and tie rules, so it returns the same ``(rows, cols)``
    int64 arrays.  Costs must be finite.  A tall matrix is solved
    transposed, its pairs sorted by original row.  Each augmenting step
    scans the remaining columns as one array; the columns start as
    ``[nc-1, ..., 0]`` (a constant square matrix gives the identity, scipy
    gh-11602), and the picked column's slot takes the last remaining
    one.
    """
    c = np.asarray(cost, dtype=np.float64)
    if not np.isfinite(c).all():
        raise ParameterError("assignment costs must be finite")
    transpose = c.shape[1] < c.shape[0]
    if transpose:
        c = np.ascontiguousarray(c.T)
    nr, nc = c.shape
    u, v = np.zeros(nr), np.zeros(nc)
    path = np.full(nc, -1, dtype=np.int64)
    col4row = np.full(nr, -1, dtype=np.int64)
    row4col = np.full(nc, -1, dtype=np.int64)
    for cur in range(nr):
        spc = np.full(nc, np.inf)
        remaining = np.arange(nc - 1, -1, -1)
        n_rem, min_val, i = nc, 0.0, cur
        seen_rows, seen_cols = [], []
        while True:
            seen_rows.append(i)
            rem = remaining[:n_rem]
            reduced = min_val + c[i, rem] - u[i] - v[rem]
            lower = reduced < spc[rem]
            spc[rem[lower]] = reduced[lower]
            path[rem[lower]] = i
            costs = spc[rem]
            min_val = costs.min()
            # The first lowest slot, unless a later lowest one is unassigned.
            ties = np.flatnonzero(costs == min_val)
            free = ties[row4col[rem[ties]] == -1]
            index = free[-1] if free.size else ties[0]
            j = int(rem[index])
            seen_cols.append(j)
            n_rem -= 1
            remaining[index] = remaining[n_rem]
            if row4col[j] == -1:
                break
            i = int(row4col[j])
        # Dual update over the rows and columns this search visited.
        u[cur] += min_val
        others = np.array(seen_rows[1:], dtype=np.int64)
        u[others] += min_val - spc[col4row[others]]
        v[seen_cols] -= min_val - spc[seen_cols]
        while True:  # augment along the path back to ``cur``
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == cur:
                break
    if transpose:
        order = np.argsort(col4row, kind="stable")
        return col4row[order], order
    return np.arange(nr, dtype=np.int64), col4row


def matched_jaccard(
    table: ContingencyTable,
) -> list[tuple[int | None, int | None, float]]:
    """Optimal one-to-one label matching by total Jaccard overlap.

    Solved by :func:`_linear_sum_assignment`, a numpy port of scipy's
    shortest-augmenting-path solver, on the negated Jaccard matrix
    (``|A_i & B_j| / |A_i | B_j|``); it returns scipy's pairs, ties
    included, without loading scipy.  Returns ``(label_a, label_b, score)``
    triples; labels left unmatched by the cardinality gap are reported with
    a ``None`` partner and score 0.
    """
    na, nb = len(table.labels_a), len(table.labels_b)
    if na == 0 or nb == 0:
        return []
    counts = table.counts.astype(np.float64)
    row = table.row_totals().astype(np.float64)[:, None]
    col = table.col_totals().astype(np.float64)[None, :]
    union = row + col - counts
    jac = np.divide(counts, union, out=np.zeros_like(counts), where=union > 0)
    rows, cols = _linear_sum_assignment(-jac)
    matches: list[tuple[int | None, int | None, float]] = []
    used_a, used_b = set(), set()
    for i, j in zip(rows, cols):
        matches.append((table.labels_a[i], table.labels_b[j], float(jac[i, j])))
        used_a.add(int(i))
        used_b.add(int(j))
    matches.sort(key=lambda t: t[0])
    for i in range(na):
        if i not in used_a:
            matches.append((table.labels_a[i], None, 0.0))
    for j in range(nb):
        if j not in used_b:
            matches.append((None, table.labels_b[j], 0.0))
    return matches


@dataclass(frozen=True)
class ClusterSummary:
    """Terrain and value statistics for one cluster."""

    label: int
    cell_count: int
    mean_elevation: float | None = None
    mean_slope: float | None = None
    value_min: float | None = None
    value_mean: float | None = None
    value_max: float | None = None


@dataclass(frozen=True)
class ClusterSummaryReport:
    """Per-cluster summaries plus the elevation-band headline fractions.

    The fractions count clusters whose mean elevation falls below the low
    band / above the high band, over clusters with terrain data; they are
    ``None`` when no cluster has elevation."""

    clusters: tuple[ClusterSummary, ...]
    fraction_below_low_band: float | None
    fraction_above_high_band: float | None


def _masked_mean(field: ScalarField, member: np.ndarray) -> float | None:
    sel = member & field.mask
    if not sel.any():
        return None
    return float(field.values[sel].mean())


def cluster_summary(
    zone_map: ZoneMap,
    elevation: ScalarField | None = None,
    slope: ScalarField | None = None,
    stack: AnnualMeanStack | None = None,
) -> ClusterSummaryReport:
    """Per-cluster mean elevation/slope and value min/mean/max over all years.

    Terrain statistics are computed over unmasked member cells only and are
    omitted (None) for clusters whose members carry no valid terrain data.
    The band fractions use ``ELEVATION_LOW_BAND_M`` and
    ``ELEVATION_HIGH_BAND_M``.
    """
    shape = zone_map.geometry.shape
    for f in (elevation, slope):
        if f is not None and f.geometry.shape != shape:
            raise ShapeMismatchError("terrain geometry must match the zone map")
    if stack is not None and stack.geometry.shape != shape:
        raise ShapeMismatchError("stack geometry must match the zone map")

    summaries = []
    for label in zone_map.present_labels():
        member = zone_map.labels == label
        count = int(member.sum())
        mean_elev = _masked_mean(elevation, member) if elevation is not None else None
        mean_slope = _masked_mean(slope, member) if slope is not None else None
        vmin = vmean = vmax = None
        if stack is not None:
            sel = member & stack.mask
            if sel.any():
                samples = np.concatenate([f.values[sel] for f in stack.fields])
                vmin = float(samples.min())
                vmean = float(samples.mean())
                vmax = float(samples.max())
        summaries.append(
            ClusterSummary(label, count, mean_elev, mean_slope, vmin, vmean, vmax)
        )

    with_elev = [s for s in summaries if s.mean_elevation is not None]
    if with_elev:
        below = sum(1 for s in with_elev if s.mean_elevation < ELEVATION_LOW_BAND_M)
        above = sum(1 for s in with_elev if s.mean_elevation > ELEVATION_HIGH_BAND_M)
        frac_below = below / len(with_elev)
        frac_above = above / len(with_elev)
    else:
        frac_below = frac_above = None
    return ClusterSummaryReport(tuple(summaries), frac_below, frac_above)


@dataclass(frozen=True)
class ComparisonReport:
    """Contingency table, ARI and matched-Jaccard scores for two labelings."""

    table: ContingencyTable
    ari: float
    matches: tuple[tuple[int | None, int | None, float], ...]


def compare_maps(map_a: ZoneMap, map_b: ZoneMap) -> ComparisonReport:
    table = contingency(map_a, map_b)
    return ComparisonReport(
        table=table,
        ari=adjusted_rand(table),
        matches=tuple(matched_jaccard(table)),
    )
