"""Malformed inputs end in exit code 2 or 3, never in a traceback.

Hypothesis draws broken manifests, year files, elevation files and label
CSVs (non-UTF-8 bytes included) and runs each through ``gridclust.cli.main``
as the command line would.  Every drawn input is malformed by construction,
so the only acceptable results are exit code 2 (invalid input) or 3 (I/O
failure).
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import assume, example, given
from hypothesis import strategies as st

from gridclust.cli import main

YEAR = 1995
NROWS = NCOLS = 2
MISSING = -999.0
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def valid_manifest():
    return {
        "variable": "tmax",
        "units": "celsius",
        "calendar": "360_day",
        "geometry": {
            "mode": "planar",
            "origin_lat": 0.0,
            "origin_lon": 0.0,
            "cell_dlat": 1.0,
            "cell_dlon": 1.0,
            "nrows": NROWS,
            "ncols": NCOLS,
        },
        "missing_value": MISSING,
        "years": [YEAR],
    }


def day_line(day):
    return ",".join(str(10.0 + (day + i) % 7) for i in range(NROWS * NCOLS))


def write_dataset_files(root, manifest=None, year_text=None, elevation=None):
    """A valid 2x2, one-year dataset, with any of its files replaced."""
    (root / "data").mkdir(parents=True)
    if manifest is None:
        manifest = json.dumps(valid_manifest()).encode()
    (root / "manifest.json").write_bytes(manifest)
    if year_text is None:
        year_text = "".join(day_line(d) + "\n" for d in range(360)).encode()
    (root / "data" / f"{YEAR}.csv").write_bytes(year_text)
    if elevation is not None:
        (root / "elevation.csv").write_bytes(elevation)


def run(*argv):
    """Exit code of one CLI run; any exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (2, 3), (code, out.getvalue(), err.getvalue())
    return code


def dataset_commands(root, out):
    run("validate", "--dataset", root)
    run("kmeans", "--dataset", root, "--k", "1", "--restarts", "1", "--out", out)
    run("mistic", "--dataset", root, "--out", out)


# -- strategies ---------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: (
        st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3)
    ),
    max_leaves=6,
)
LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=LINE_BREAKS))


def invalid_utf8(data):
    """Bytes that cannot decode as UTF-8: a lone 0xff among drawn bytes."""
    return data.draw(st.binary(max_size=6)) + b"\xff" + data.draw(st.binary(max_size=6))


def is_number(v):
    return type(v) in (int, float)


# Which values of each manifest field the 2x2 one-year dataset cannot accept.
MALFORMED = {
    "variable": lambda v: type(v) is not str,
    "units": lambda v: v not in ("celsius", "kelvin"),
    "calendar": lambda v: v not in ("360_day", "gregorian"),
    "geometry": lambda v: v != valid_manifest()["geometry"],
    "missing_value": lambda v: not (
        is_number(v) and math.isfinite(v) and not -150.0 <= v <= 400.0
    ),
    "years": lambda v: v != [YEAR],
    "mode": lambda v: v not in ("planar", "geographic"),
    "origin_lat": lambda v: not (is_number(v) and math.isfinite(v)),
    "origin_lon": lambda v: not (is_number(v) and math.isfinite(v)),
    "cell_dlat": lambda v: not (is_number(v) and math.isfinite(v) and v > 0),
    "cell_dlon": lambda v: not (is_number(v) and math.isfinite(v) and v > 0),
    "nrows": lambda v: v != NROWS,
    "ncols": lambda v: v != NCOLS,
}


@st.composite
def broken_manifests(draw):
    how = draw(st.sampled_from(["bytes", "not utf-8", "document", "field", "missing field"]))
    if how == "bytes":
        return draw(st.binary(max_size=40))
    if how == "not utf-8":
        return json.dumps(valid_manifest()).encode()[:-1] + invalid_utf8(draw(st.data()))
    if how == "document":
        return json.dumps(draw(JSON_VALUES)).encode()
    doc = valid_manifest()
    key = draw(st.sampled_from(sorted(MALFORMED)))
    owner = doc if key in doc else doc["geometry"]
    if how == "missing field":
        del owner[key]
    else:
        value = draw(JSON_VALUES)
        assume(MALFORMED[key](value))
        owner[key] = value
    return json.dumps(doc).encode()


def is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def is_valid_row(text, nfields):
    parts = text.split(",")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        return False
    return len(parts) == nfields and all(math.isfinite(v) or v == MISSING for v in values)


@st.composite
def broken_grid_files(draw, lines, nfields):
    """The bytes of a grid CSV of ``lines`` with one line replaced, a line
    inserted, or bytes that are not UTF-8 spliced in."""
    lines = list(lines)
    at = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["replace", "insert", "not utf-8"]))
    if how == "replace":
        text = draw(LINE_TEXT)
        assume(not is_valid_row(text, nfields))
        lines[at] = text
    elif how == "insert":
        lines.insert(at, draw(LINE_TEXT))
    raw = "".join(line + "\n" for line in lines).encode()
    if how == "not utf-8":
        cut = draw(st.integers(0, len(raw)))
        raw = raw[:cut] + invalid_utf8(draw(st.data())) + raw[cut:]
    return raw


VALID_LABEL_ROWS = ["0,0,1", "0,1,1", "1,0,2", "1,1,0"]


@st.composite
def broken_label_files(draw):
    lines = ["row,col,label"] + VALID_LABEL_ROWS
    how = draw(st.sampled_from(
        ["header", "fields", "token", "negative", "huge entry", "repeat", "not utf-8"]
    ))
    at = draw(st.integers(1, len(lines)))
    ints = st.integers(min_value=0)
    if how == "header":
        header = draw(LINE_TEXT)
        assume(header.strip() != "row,col,label")
        lines[0] = header
    elif how == "fields":
        n = draw(st.integers(1, 6).filter(lambda n: n != 3))
        lines.insert(at, ",".join(str(draw(ints)) for _ in range(n)))
    elif how == "token":
        token = draw(LINE_TEXT.filter(lambda t: "," not in t))
        assume(not is_int(token))
        parts = [str(draw(ints)), str(draw(ints)), str(draw(ints))]
        parts[draw(st.integers(0, 2))] = token
        lines.insert(at, ",".join(parts))
    elif how == "negative":
        parts = [str(draw(ints)), str(draw(ints)), str(draw(ints))]
        parts[draw(st.integers(0, 2))] = str(draw(st.integers(max_value=-1)))
        lines.insert(at, ",".join(parts))
    elif how == "huge entry":
        parts = [str(draw(ints)), str(draw(ints)), str(draw(ints))]
        parts[draw(st.integers(0, 2))] = str(draw(st.integers(2**31, 2**80)))
        lines.insert(at, ",".join(parts))
    elif how == "repeat":
        lines.insert(at, draw(st.sampled_from(VALID_LABEL_ROWS)))
    raw = "".join(line + "\n" for line in lines).encode()
    if how == "not utf-8":
        cut = draw(st.integers(0, len(raw)))
        raw = raw[:cut] + invalid_utf8(draw(st.data())) + raw[cut:]
    return raw


# -- tests --------------------------------------------------------------------

def with_geometry(key, value):
    """The valid manifest's bytes with one geometry field replaced."""
    doc = valid_manifest()
    doc["geometry"][key] = value
    return json.dumps(doc).encode()


@given(manifest=broken_manifests())
@example(manifest=with_geometry("origin_lat", math.nan))
@example(manifest=with_geometry("origin_lon", -math.inf))
@example(manifest=with_geometry("cell_dlat", math.inf))
@example(manifest=with_geometry("cell_dlon", math.inf))
def test_broken_manifests_exit_2_or_3(manifest):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ds"
        write_dataset_files(root, manifest=manifest)
        dataset_commands(root, Path(tmp) / "out")


@given(data=st.data())
def test_broken_year_files_exit_2_or_3(data):
    lines = [day_line(d) for d in range(360)]
    year_text = data.draw(broken_grid_files(lines, NROWS * NCOLS))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ds"
        write_dataset_files(root, year_text=year_text)
        dataset_commands(root, Path(tmp) / "out")


@given(data=st.data())
def test_broken_elevation_files_exit_2_or_3(data):
    elevation = data.draw(broken_grid_files(["100.0,200.0", "300.0,-999.0"], NCOLS))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ds"
        write_dataset_files(root, elevation=elevation)
        labels = Path(tmp) / "labels.csv"
        labels.write_text("row,col,label\n" + "\n".join(VALID_LABEL_ROWS) + "\n")
        run("validate", "--dataset", root)
        run("compare", labels, labels, "--dataset", root, "--out", Path(tmp) / "out")


@given(raw=broken_label_files())
def test_broken_label_files_exit_2_or_3(raw):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ds"
        write_dataset_files(root)
        bad, good = Path(tmp) / "bad.csv", Path(tmp) / "good.csv"
        bad.write_bytes(raw)
        good.write_text("row,col,label\n" + "\n".join(VALID_LABEL_ROWS) + "\n")
        out = Path(tmp) / "out"
        run("render", bad, "--out", out)
        run("compare", bad, good, "--out", out)
        run("compare", good, bad, "--dataset", root, "--out", out)
