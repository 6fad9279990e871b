"""Differential tests: the CLI label-file path against the dense-grid oracle.

Without ``--dataset``, ``compare`` lays the labelled cells of both files on
one row and ``render`` draws the cells it read.  The oracle is the earlier
path: a zone map on a grid sized by the largest row and column in the
files, one cell at a time.  Both commands must write the same bytes as the
oracle on every pair of label files.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from gridclust.analysis import adjusted_rand, cluster_summary, contingency, matched_jaccard
from gridclust.cli import _summary_doc, main
from gridclust.errors import GridClustError
from gridclust.gridcore import PLANAR, GridGeometry, ZoneMap
from gridclust.render import zone_map_svg


def oracle_zone_map(cells, geometry):
    labels = np.full(geometry.shape, -1, dtype=np.int32)
    for (row, col), lab in cells.items():
        labels[row, col] = lab
    return ZoneMap(geometry, labels, {})


def oracle_geometry(*cell_dicts):
    all_cells = [cell for cells in cell_dicts for cell in cells]
    nrows = max(r for r, _ in all_cells) + 1
    ncols = max(c for _, c in all_cells) + 1
    return GridGeometry(PLANAR, 0.0, 0.0, 1.0, 1.0, nrows, ncols)


def oracle_compare_docs(cells_a, cells_b):
    """comparison.json and summary.json text, or None where the CLI must exit 2."""
    if not cells_a and not cells_b:
        return None
    geometry = oracle_geometry(cells_a, cells_b)
    map_a = oracle_zone_map(cells_a, geometry)
    map_b = oracle_zone_map(cells_b, geometry)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = contingency(map_a, map_b)
    try:
        ari = adjusted_rand(table)
    except GridClustError:
        return None
    comparison = {
        "ari": ari,
        "contingency": {
            "labels_a": list(table.labels_a),
            "labels_b": list(table.labels_b),
            "counts": [[int(v) for v in row] for row in table.counts],
            "total": table.total,
        },
        "coverage": {"joint": table.total, "only_a": table.only_a, "only_b": table.only_b},
        "matched_jaccard": [
            {"label_a": la, "label_b": lb, "jaccard": score}
            for la, lb, score in matched_jaccard(table)
        ],
    }
    summary = {
        "a": _summary_doc(cluster_summary(map_a)),
        "b": _summary_doc(cluster_summary(map_b)),
    }
    return [json.dumps(doc, indent=2, sort_keys=True) + "\n" for doc in (comparison, summary)]


def labels_text(cells):
    return "row,col,label\n" + "".join(f"{r},{c},{lab}\n" for (r, c), lab in cells.items())


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main([str(a) for a in argv])


@st.composite
def label_file_pairs(draw):
    """Two label files over a shared pool of cells, in drawn line order: the
    files may share all, some or none of their cells, and leave gaps."""
    cell = st.tuples(st.integers(0, 6), st.integers(0, 6))
    pool = draw(st.lists(cell, max_size=14, unique=True))
    labels = st.integers(0, 4)
    files = []
    for _ in range(2):
        chosen = draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
        files.append({c: draw(labels) for c in chosen})
    return files


@given(files=label_file_pairs())
def test_compare_without_dataset_matches_dense_grid(files):
    cells_a, cells_b = files
    expected = oracle_compare_docs(cells_a, cells_b)
    with tempfile.TemporaryDirectory() as tmp:
        a, b, out = Path(tmp) / "a.csv", Path(tmp) / "b.csv", Path(tmp) / "out"
        a.write_text(labels_text(cells_a))
        b.write_text(labels_text(cells_b))
        code = run("compare", a, b, "--out", out)
        if expected is None:
            assert code == 2
            assert not out.exists()
        else:
            assert code == 0
            got = [(out / name).read_text() for name in ("comparison.json", "summary.json")]
            assert got == expected


@given(files=label_file_pairs())
def test_render_matches_dense_grid(files):
    cells = files[0]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "labels.csv", Path(tmp) / "out"
        path.write_text(labels_text(cells))
        code = run("render", path, "--cell-px", 3, "--out", out)
        if not cells:
            assert code == 2
        else:
            assert code == 0
            expected = zone_map_svg(oracle_zone_map(cells, oracle_geometry(cells)), 3)
            assert (out / "map_labels.svg").read_text() == expected
