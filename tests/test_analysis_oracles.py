"""Differential tests: the numpy assignment solver against scipy's.

``analysis._linear_sum_assignment`` is a port of the rectangular solver of
``scipy.optimize.linear_sum_assignment``, and the oracle here is scipy
itself.  The port must return the same ``rows`` and ``cols`` arrays on
every finite cost matrix, ties included, and ``matched_jaccard`` must list
the same pairs with the same score bits as the earlier version that called
scipy.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from gridclust.analysis import ContingencyTable, _linear_sum_assignment, matched_jaccard


def oracle_matched_jaccard(table):
    """The earlier ``matched_jaccard``, solved by scipy."""
    na, nb = len(table.labels_a), len(table.labels_b)
    if na == 0 or nb == 0:
        return []
    counts = table.counts.astype(np.float64)
    row = table.row_totals().astype(np.float64)[:, None]
    col = table.col_totals().astype(np.float64)[None, :]
    union = row + col - counts
    jac = np.divide(counts, union, out=np.zeros_like(counts), where=union > 0)
    rows, cols = linear_sum_assignment(-jac)
    matches = []
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


@st.composite
def shapes(draw):
    """0-12 rows by 0-40 columns, or the transpose: wide and tall."""
    short, long = draw(st.integers(0, 12)), draw(st.integers(0, 40))
    return (short, long) if draw(st.booleans()) else (long, short)


@st.composite
def count_tables(draw):
    return draw(hnp.arrays(np.int64, draw(shapes()), elements=st.integers(0, 3)))


def negated_jaccard(counts):
    counts = counts.astype(np.float64)
    union = counts.sum(axis=1)[:, None] + counts.sum(axis=0)[None, :] - counts
    return -np.divide(counts, union, out=np.zeros_like(counts), where=union > 0)


@st.composite
def cost_matrices(draw):
    """Integer-valued, constant, continuous or negated-Jaccard costs; the
    first two and the last are full of ties."""
    kind = draw(st.sampled_from(["integer", "constant", "continuous", "jaccard"]))
    if kind == "jaccard":
        return negated_jaccard(draw(count_tables()))
    shape = draw(shapes())
    if kind == "constant":
        return np.full(shape, draw(st.floats(-1e6, 1e6)))
    if kind == "integer":
        return draw(hnp.arrays(np.float64, shape, elements=st.integers(-2, 2)))
    return draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))


@given(cost=cost_matrices())
@example(cost=np.zeros((0, 0)))
@example(cost=np.zeros((0, 5)))
@example(cost=np.zeros((5, 0)))
@example(cost=np.full((6, 6), 3.0))
@example(cost=np.full((9, 4), -1.0))
@example(cost=np.random.default_rng(300).random((300, 300)))
@example(cost=np.random.default_rng(100).random((100, 400)))
@example(cost=np.random.default_rng(400).integers(0, 4, (400, 100)).astype(np.float64))
def test_assignment_matches_scipy(cost):
    rows, cols = _linear_sum_assignment(cost)
    want_rows, want_cols = linear_sum_assignment(cost)
    assert rows.dtype == want_rows.dtype and cols.dtype == want_cols.dtype
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(cols, want_cols)


def test_constant_square_gives_identity():
    # scipy gh-11602: the remaining columns start as [nc-1, ..., 0].
    rows, cols = _linear_sum_assignment(np.full((7, 7), 2.5))
    assert rows.tolist() == cols.tolist() == list(range(7))


@given(counts=count_tables(), offset=st.integers(-5, 5))
def test_matched_jaccard_matches_scipy_version(counts, offset):
    na, nb = counts.shape
    table = ContingencyTable(
        tuple(range(offset, offset + 2 * na, 2)),
        tuple(range(offset + 1, offset + 1 + 3 * nb, 3)),
        counts,
        int(counts.sum()),
    )
    got = [(a, b, repr(score)) for a, b, score in matched_jaccard(table)]
    want = [(a, b, repr(score)) for a, b, score in oracle_matched_jaccard(table)]
    assert got == want
