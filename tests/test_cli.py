import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gridclust
from gridclust import __version__, kmeans, mistic
from gridclust.cli import main

from test_ingest import constant_lines, manifest_doc, write_gts


def run(*argv):
    return main([str(a) for a in argv])


def run_meta(out):
    return json.loads((out / "run_meta.json").read_text())


def hashes(*paths):
    return {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def dataset_files(root):
    years = [root / "data" / f"{year}.csv" for year in range(1990, 1996)]
    return [root / "manifest.json", *years, root / "elevation.csv"]


@pytest.fixture(scope="session")
def km_out(demo_dataset, tmp_path_factory):
    root, _ = demo_dataset
    out = tmp_path_factory.mktemp("km")
    assert run("kmeans", "--dataset", root, "--k", "2,3", "--restarts", "3",
               "--out", out) == 0
    return out


@pytest.fixture(scope="session")
def mi_out(demo_dataset, tmp_path_factory):
    root, _ = demo_dataset
    out = tmp_path_factory.mktemp("mi")
    assert run("mistic", "--dataset", root, "--min-years", "3", "--out", out) == 0
    return out


class TestValidate:
    def test_clean_demo_exits_zero(self, demo_dataset):
        root, _ = demo_dataset
        assert run("validate", "--dataset", root) == 0

    def test_tampered_dataset_exits_two(self, demo_dataset, tmp_path, capsys):
        root, _ = demo_dataset
        bad = tmp_path / "bad"
        shutil.copytree(root, bad)
        payload = bad / "data" / "1991.csv"
        lines = payload.read_text().splitlines()
        payload.write_text("\n".join(lines[:-1]) + "\n")
        assert run("validate", "--dataset", bad) == 2
        out = capsys.readouterr().out
        assert "1991" in out and "360" in out

    def test_missing_manifest_exits_three(self, tmp_path):
        assert run("validate", "--dataset", tmp_path / "nope") == 3

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("nrows", "x", "'nrows' must be an integer"),
            ("years", ["abc"], "'years' must be a list of integers"),
            ("geometry", 5, "'geometry' must be an object"),
            ("missing_value", "-999", "'missing_value' must be a number"),
            ("cell_dlat", None, "'cell_dlat' must be a number"),
            ("origin_lat", float("nan"), "geometry invalid: origin_lat must be finite"),
            ("cell_dlon", float("inf"), "geometry invalid: cell_dlon must be finite"),
        ],
    )
    def test_manifest_field_of_wrong_type_exits_two(self, tmp_path, capsys, field, value, named):
        doc = manifest_doc()
        (doc if field in doc else doc["geometry"])[field] = value
        write_gts(tmp_path, doc, {1995: constant_lines(360, 4)})
        assert run("validate", "--dataset", tmp_path) == 2
        assert named in capsys.readouterr().out
        assert run("kmeans", "--dataset", tmp_path, "--out", tmp_path / "out") == 2
        assert named in capsys.readouterr().err

    def test_manifest_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        write_gts(tmp_path, [manifest_doc()], {1995: constant_lines(360, 4)})
        assert run("validate", "--dataset", tmp_path) == 2
        assert "manifest must be a JSON object" in capsys.readouterr().out

    def test_deeply_nested_manifest_exits_two(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("[" * 100_000 + "]" * 100_000)
        assert run("validate", "--dataset", tmp_path) == 2
        assert "manifest.json: invalid JSON" in capsys.readouterr().out

    def test_non_utf8_year_file_exits_two(self, tmp_path, capsys):
        write_gts(tmp_path, manifest_doc(), {1995: constant_lines(360, 4)})
        payload = tmp_path / "data" / "1995.csv"
        payload.write_bytes(b"\xff\xfe" + payload.read_bytes())
        assert run("validate", "--dataset", tmp_path) == 2
        out = capsys.readouterr().out
        assert "1 violation(s)" in out and f"{payload}: not UTF-8 text" in out
        assert run("kmeans", "--dataset", tmp_path, "--out", tmp_path / "out") == 2
        assert f"{payload}: not UTF-8 text" in capsys.readouterr().err


class TestKmeansCommand:
    def test_sweep_outputs(self, km_out):
        assert (km_out / "labels_k2.csv").exists()
        assert (km_out / "labels_k3.csv").exists()
        assert (km_out / "map_k2.svg").exists()
        report = json.loads((km_out / "kmeans_report.json").read_text())
        assert [r["k"] for r in report["runs"]] == [2, 3]
        meta = json.loads((km_out / "run_meta.json").read_text())
        assert meta["command"] == "kmeans"
        assert meta["inputs"]

    def test_three_k_sweep(self, demo_dataset, tmp_path):
        root, _ = demo_dataset
        out = tmp_path / "sweep"
        assert run("kmeans", "--dataset", root, "--k", "8,10,12", "--restarts", "1",
                   "--out", out) == 0
        report = json.loads((out / "kmeans_report.json").read_text())
        assert [r["k"] for r in report["runs"]] == [8, 10, 12]
        for k in (8, 10, 12):
            assert (out / f"labels_k{k}.csv").exists()
            assert (out / f"map_k{k}.svg").exists()

    def test_k1_labels_everything_zero(self, demo_dataset, tmp_path):
        root, _ = demo_dataset
        out = tmp_path / "k1"
        assert run("kmeans", "--dataset", root, "--k", "1", "--restarts", "1",
                   "--out", out) == 0
        lines = (out / "labels_k1.csv").read_text().splitlines()
        assert lines[0] == "row,col,label"
        labels = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert labels == {"0"}
        assert len(lines) - 1 == 24 * 24 - 4  # masked corner omitted

    def test_byte_identical_reruns(self, demo_dataset, km_out, tmp_path):
        root, _ = demo_dataset
        out2 = tmp_path / "again"
        assert run("kmeans", "--dataset", root, "--k", "2,3", "--restarts", "3",
                   "--out", out2) == 0
        for name in ("labels_k2.csv", "labels_k3.csv", "kmeans_report.json",
                     "run_meta.json", "map_k2.svg"):
            assert (km_out / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_k_list_exits_two(self, demo_dataset, tmp_path):
        root, _ = demo_dataset
        assert run("kmeans", "--dataset", root, "--k", "a,b", "--out", tmp_path / "x") == 2

    def test_repeated_k_exits_two(self, demo_dataset, tmp_path, capsys):
        root, _ = demo_dataset
        out = tmp_path / "dup"
        assert run("kmeans", "--dataset", root, "--k", "2,2", "--restarts", "1",
                   "--out", out) == 2
        assert "k = 2 more than once" in capsys.readouterr().err
        assert not (out / "kmeans_report.json").exists()

    def test_negative_seed_exits_two(self, demo_dataset, tmp_path, capsys):
        root, _ = demo_dataset
        out = tmp_path / "neg"
        assert run("kmeans", "--dataset", root, "--k", "2", "--seed", "-1", "--out", out) == 2
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_error_exits_two(self, demo_dataset, tmp_path, capsys, monkeypatch):
        true_centroids = kmeans._centroids
        monkeypatch.setattr(
            kmeans, "_centroids", lambda X, labels, k: true_centroids(X, labels, k) + 100.0
        )
        root, _ = demo_dataset
        assert run("kmeans", "--dataset", root, "--k", "2", "--restarts", "1",
                   "--out", tmp_path / "bad") == 2
        assert "error: k-means inertia increased" in capsys.readouterr().err


class TestMisticCommand:
    def test_outputs(self, mi_out):
        for name in ("foci.json", "cores.json", "consensus.csv", "map_consensus.svg",
                     "run_meta.json"):
            assert (mi_out / name).exists()
        for year in range(1990, 1996):
            assert (mi_out / f"zones_{year}.csv").exists()
        cores = json.loads((mi_out / "cores.json").read_text())
        assert len(cores["cores"]) == 2
        assert {c["dominance"] for c in cores["cores"]} == {"CHD", "CLD"}
        foci = json.loads((mi_out / "foci.json").read_text())
        frequent = [c for c in foci["cells"] if c["frequent"]]
        assert len(frequent) == 2

    def test_cr_radius_one_matches_cc_files(self, demo_dataset, mi_out, tmp_path):
        root, _ = demo_dataset
        out_cr = tmp_path / "cr"
        assert run("mistic", "--dataset", root, "--min-years", "3", "--mode", "cr",
                   "--radius", "1", "--out", out_cr) == 0
        names = ["cores.json", "foci.json", "consensus.csv", "map_consensus.svg"]
        names += [f"zones_{y}.csv" for y in range(1990, 1996)]
        for name in names:
            assert (mi_out / name).read_bytes() == (out_cr / name).read_bytes(), name

    def test_radius_beyond_the_grid_matches_the_grid_span(self, demo_dataset, tmp_path):
        root, _ = demo_dataset
        outs = {}
        for radius in ("23", "1000000000"):
            outs[radius] = tmp_path / radius
            assert run("mistic", "--dataset", root, "--min-years", "3", "--mode", "cr",
                       "--radius", radius, "--out", outs[radius]) == 0
        names = ["cores.json", "consensus.csv", "map_consensus.svg"]
        for name in names:
            assert (outs["23"] / name).read_bytes() == (outs["1000000000"] / name).read_bytes()

    def test_threshold_above_span_still_builds_cores(self, demo_dataset, tmp_path):
        root, _ = demo_dataset
        out = tmp_path / "strict"
        assert run("mistic", "--dataset", root, "--min-years", "32", "--out", out) == 0
        foci = json.loads((out / "foci.json").read_text())
        assert all(not c["frequent"] for c in foci["cells"])
        cores = json.loads((out / "cores.json").read_text())
        assert len(cores["cores"]) == 2
        assert all(c["dominance"] for c in cores["cores"])

    def test_byte_identical_reruns(self, demo_dataset, mi_out, tmp_path):
        root, _ = demo_dataset
        out2 = tmp_path / "again"
        assert run("mistic", "--dataset", root, "--min-years", "3", "--out", out2) == 0
        for name in ("foci.json", "cores.json", "consensus.csv", "run_meta.json"):
            assert (mi_out / name).read_bytes() == (out2 / name).read_bytes()

    def test_auto_orientation_on_min_variable(self, demo_dataset, mi_out, tmp_path):
        # a tmin dataset plants the same structure inverted; auto orientation
        # seeds from minima and must recover the same zones
        from gridclust.synth import write_planted_dataset

        ds = tmp_path / "tmin"
        write_planted_dataset(ds, nrows=24, ncols=24, n_years=6, b_exact=3,
                              seed=77, variable="tmin")
        out = tmp_path / "out"
        assert run("mistic", "--dataset", ds, "--min-years", "3", "--out", out) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["parameters"]["orientation"] == "minima"
        assert (out / "consensus.csv").read_bytes() == (mi_out / "consensus.csv").read_bytes()
        assert (out / "foci.json").read_bytes() == (mi_out / "foci.json").read_bytes()

    def test_constant_dataset_reports_no_foci(self, tmp_path, capsys):
        ds = tmp_path / "flat"
        write_gts(ds, manifest_doc(years=(1995,)), {1995: constant_lines(360, 4)})
        out = tmp_path / "out"
        assert run("mistic", "--dataset", ds, "--min-years", "1", "--out", out) == 0
        assert "no foci" in capsys.readouterr().out
        cores = json.loads((out / "cores.json").read_text())
        assert cores["cores"] == []
        assert (out / "consensus.csv").read_text() == "row,col,label\n"

    def test_theta_high_above_one_exits_two_without_foci(self, tmp_path, capsys):
        ds = tmp_path / "flat"
        write_gts(ds, manifest_doc(years=(1995,)), {1995: constant_lines(360, 4)})
        out = tmp_path / "out"
        assert run("mistic", "--dataset", ds, "--min-years", "1", "--theta-high", "5",
                   "--out", out) == 2
        assert "thresholds must satisfy" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "flags, named",
        [(["--min-years", "0"], "min_years"), (["--mode", "cr", "--radius", "0"], "radius")],
    )
    def test_bad_grouping_or_min_years_exits_two_before_the_years(
        self, demo_dataset, tmp_path, capsys, monkeypatch, flags, named
    ):
        calls, detect = [], mistic.detect_focus_points
        monkeypatch.setattr(
            mistic, "detect_focus_points", lambda *a, **kw: calls.append(1) or detect(*a, **kw)
        )
        root, _ = demo_dataset
        out = tmp_path / "out"
        assert run("mistic", "--dataset", root, *flags, "--out", out) == 2
        err = capsys.readouterr().err
        assert named in err and "theta" not in err
        assert calls == []
        assert not out.exists()


class TestCompareCommand:
    def test_self_comparison_scores_one(self, mi_out, tmp_path):
        out = tmp_path / "self"
        assert run("compare", mi_out / "consensus.csv", mi_out / "consensus.csv",
                   "--out", out) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["ari"] == 1.0

    def test_permuted_labels_score_one(self, mi_out, tmp_path):
        src = (mi_out / "consensus.csv").read_text().splitlines()
        permuted = [src[0]]
        for line in src[1:]:
            r, c, lab = line.split(",")
            permuted.append(f"{r},{c},{(int(lab) + 1) % 2}")
        pfile = tmp_path / "permuted.csv"
        pfile.write_text("\n".join(permuted) + "\n")
        out = tmp_path / "perm"
        assert run("compare", mi_out / "consensus.csv", pfile, "--out", out) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["ari"] == 1.0

    def test_kmeans_vs_consensus_on_planted_data(self, demo_dataset, km_out, mi_out, tmp_path):
        root, _ = demo_dataset
        out = tmp_path / "cross"
        assert run("compare", km_out / "labels_k2.csv", mi_out / "consensus.csv",
                   "--dataset", root, "--out", out) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["ari"] >= 0.8
        summary = json.loads((out / "summary.json").read_text())
        assert summary["a"]["fraction_below_1500_m"] == pytest.approx(0.5)
        assert summary["a"]["fraction_above_2000_m"] == pytest.approx(0.5)
        assert summary["a"]["elevation_bands_m"] == [1500.0, 2000.0]
        assert (out / "elev_slope.svg").exists()

    def test_missing_labels_file_exits_three(self, tmp_path):
        assert run("compare", tmp_path / "a.csv", tmp_path / "b.csv",
                   "--out", tmp_path / "o") == 3

    def test_elevation_without_dataset_exits_two(self, mi_out, tmp_path):
        elev = tmp_path / "elev.csv"
        elev.write_text("1.0\n")
        assert run("compare", mi_out / "consensus.csv", mi_out / "consensus.csv",
                   "--elevation", elev, "--out", tmp_path / "o") == 2

    def test_header_only_files_without_dataset_exit_two(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("row,col,label\n")
        b.write_text("row,col,label\n")
        assert run("compare", a, b, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert str(a) in err and str(b) in err

    @pytest.mark.parametrize("command", ["render", "compare"])
    def test_non_utf8_labels_exit_two(self, mi_out, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xferow,col,label\n0,0,1\n")
        others = [] if command == "render" else [mi_out / "consensus.csv"]
        assert run(command, bad, *others, "--out", tmp_path / "out") == 2
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["render", "compare"])
    @pytest.mark.parametrize("line, name", [("1099511627776,0,1", "row"), ("0,2147483648,1", "col")])
    def test_index_beyond_int32_exits_two(self, tmp_path, capsys, command, line, name):
        labels = tmp_path / "far.csv"
        labels.write_text(f"row,col,label\n{line}\n")
        others = [] if command == "render" else [labels]
        assert run(command, labels, *others, "--out", tmp_path / "out") == 2
        value = line.split(",")[0 if name == "row" else 1]
        assert f"line 2: {name} {value} does not fit in int32" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["render", "compare"])
    def test_far_cell_allocates_no_grid(self, tmp_path, command):
        # A grid sized by the largest row and col here would take 64 MB.
        labels = tmp_path / "far.csv"
        labels.write_text("row,col,label\n0,0,1\n4000,4000,2\n")
        others = [] if command == "render" else [labels]
        tracemalloc.start()
        try:
            code = run(command, labels, *others, "--out", tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 2**20

    def test_cell_outside_dataset_grid_exits_two(self, demo_dataset, mi_out, tmp_path, capsys):
        root, _ = demo_dataset
        outside = tmp_path / "outside.csv"
        outside.write_text("row,col,label\n0,0,1\n3,24,1\n24,0,1\n")
        assert run("compare", mi_out / "consensus.csv", outside, "--dataset", root,
                   "--out", tmp_path / "o") == 2
        assert "label cell (3, 24) outside the dataset grid (24, 24)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        ["1_0,0,1", "\uff11,0,1", " +2 ,0,1", "0,+2,1", "0,0,\u0663", "0,2.0,1", "0,0,-",
         "0,0,--1", "0,,1", "0,0,1e3", "0,0,0x1",
         pytest.param("0,0," + "9" * 5000, id="5000 digits")],
    )
    @pytest.mark.parametrize("command", ["render", "compare"])
    def test_non_integer_token_exits_two(self, tmp_path, capsys, command, line):
        # Only ASCII digits with an optional leading '-' read as an entry.
        labels = tmp_path / "token.csv"
        labels.write_text(f"row,col,label\n0,1,1\n{line}\n", encoding="utf-8")
        others = [] if command == "render" else [labels]
        assert run(command, labels, *others, "--out", tmp_path / "out") == 2
        assert f"{labels} line 3: non-integer entry" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["-1,0,1", " -3 ,0,1", "0,0,-7"])
    def test_minus_sign_reads_as_negative_entry(self, tmp_path, capsys, line):
        labels = tmp_path / "minus.csv"
        labels.write_text(f"row,col,label\n{line}\n")
        assert run("render", labels, "--out", tmp_path / "out") == 2
        assert f"{labels} line 2: negative entry" in capsys.readouterr().err

    def test_padded_ascii_tokens_read(self, tmp_path):
        labels = tmp_path / "padded.csv"
        labels.write_text("row,col,label\n 0 ,\t007,1\u3000\n")
        assert run("render", labels, "--out", tmp_path / "out") == 0

    def test_label_beyond_int32_exits_two(self, tmp_path, capsys):
        labels = tmp_path / "big.csv"
        labels.write_text("row,col,label\n0,0,2147483648\n")
        assert run("render", labels, "--out", tmp_path / "out") == 2
        assert "line 2: label 2147483648 does not fit in int32" in capsys.readouterr().err

    def test_duplicate_cell_exits_two(self, mi_out, tmp_path, capsys):
        dup = tmp_path / "dup.csv"
        dup.write_text("row,col,label\n0,0,1\n0,1,1\n0,0,2\n")
        assert run("compare", dup, mi_out / "consensus.csv", "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert str(dup) in err and "line 4" in err and "line 2" in err


class TestRenderCommand:
    def test_renders_labels_csv(self, mi_out, tmp_path):
        out = tmp_path / "render"
        assert run("render", mi_out / "consensus.csv", "--out", out) == 0
        svg = (out / "map_consensus.svg").read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg


@pytest.mark.parametrize("cell_px", ["0", "-3"])
@pytest.mark.parametrize("command", ["kmeans", "mistic", "render"])
def test_cell_size_below_one_pixel_exits_two(demo_dataset, mi_out, tmp_path, capsys,
                                             command, cell_px):
    root, _ = demo_dataset
    args = {
        "kmeans": ["--dataset", root, "--k", "2", "--restarts", "1"],
        "mistic": ["--dataset", root, "--min-years", "3"],
        "render": [mi_out / "consensus.csv"],
    }[command]
    out = tmp_path / "out"
    assert run(command, *args, "--cell-px", cell_px, "--out", out) == 2
    assert f"error: cell_px must be >= 1, got {cell_px}" in capsys.readouterr().err
    assert not out.exists()


class TestRunMeta:
    """``run_meta.json`` of each writing command, spelled out."""

    def test_kmeans_records_the_parsed_k_list(self, demo_dataset, km_out):
        root, _ = demo_dataset
        assert run_meta(km_out) == {
            "command": "kmeans",
            "version": __version__,
            "parameters": {
                "dataset": str(root),
                "k": [2, 3],
                "seed": 0,
                "restarts": 3,
                "min_valid_fraction": 1.0,
                "cell_px": 12,
            },
            "inputs": hashes(*dataset_files(root)),
            "outputs": [
                "kmeans_report.json", "labels_k2.csv", "labels_k3.csv", "map_k2.svg", "map_k3.svg"
            ],
            "notices": [],
        }

    def test_mistic_records_the_resolved_orientation(self, demo_dataset, mi_out):
        root, _ = demo_dataset
        assert run_meta(mi_out) == {
            "command": "mistic",
            "version": __version__,
            "parameters": {
                "dataset": str(root),
                "orientation": "maxima",
                "min_years": 3,
                "mode": "cc",
                "radius": 1,
                "theta_high": 0.6,
                "theta_dom": None,
                "min_valid_fraction": 1.0,
                "cell_px": 12,
            },
            "inputs": hashes(*dataset_files(root)),
            "outputs": ["consensus.csv", "cores.json", "foci.json", "map_consensus.svg"]
            + [f"zones_{year}.csv" for year in range(1990, 1996)],
            "notices": [],
        }

    @pytest.mark.parametrize("source", ["neither", "dataset", "elevation"])
    def test_compare(self, demo_dataset, km_out, mi_out, tmp_path, source):
        root, _ = demo_dataset
        a, b = km_out / "labels_k2.csv", mi_out / "consensus.csv"
        elevation = tmp_path / "elev.csv"
        shutil.copy(root / "elevation.csv", elevation)
        extra = {
            "neither": [],
            "dataset": ["--dataset", root],
            "elevation": ["--dataset", root, "--elevation", elevation],
        }[source]
        out = tmp_path / "out"
        assert run("compare", a, b, *extra, "--out", out) == 0
        inputs = [a, b]
        outputs = ["comparison.json", "summary.json"]
        if source != "neither":
            inputs += dataset_files(root)
            outputs.insert(1, "elev_slope.svg")
        if source == "elevation":
            # The file read in place of the dataset's own elevation.csv.
            inputs[-1] = elevation
        assert run_meta(out) == {
            "command": "compare",
            "version": __version__,
            "parameters": {
                "labels_a": str(a),
                "labels_b": str(b),
                "dataset": str(root) if source != "neither" else None,
                "elevation": str(elevation) if source == "elevation" else None,
                "min_valid_fraction": 1.0,
            },
            "inputs": hashes(*inputs),
            "outputs": outputs,
            "notices": [],
        }

    def test_render(self, mi_out, tmp_path):
        labels = mi_out / "consensus.csv"
        out = tmp_path / "out"
        assert run("render", labels, "--out", out) == 0
        assert run_meta(out) == {
            "command": "render",
            "version": __version__,
            "parameters": {"labels": str(labels), "cell_px": 12},
            "inputs": hashes(labels),
            "outputs": ["map_consensus.svg"],
            "notices": [],
        }


# Blocks scipy in a fresh interpreter (any scipy import raises ImportError),
# then runs each argv of the JSON list in argv[1] through the CLI.
SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None
from gridclust.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
"""


def fresh_python(code, *args, cwd=None):
    env = dict(os.environ)
    src = str(Path(gridclust.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, cwd=cwd
    )


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestStartUpWithoutScipy:
    """No command loads scipy: the CLI runs with every scipy import blocked."""

    def test_import_loads_no_scipy(self):
        proc = fresh_python(
            "import sys, gridclust.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_match_an_unguarded_run(self, demo_dataset, km_out, mi_out, tmp_path):
        root, _ = demo_dataset
        labels = mi_out / "consensus.csv"
        render_out = tmp_path / "render"
        assert run("render", labels, "--out", render_out) == 0
        elevation = tmp_path / "elev.csv"
        shutil.copy(root / "elevation.csv", elevation)
        compares = {
            "neither": [],
            "dataset": ["--dataset", root],
            "elevation": ["--dataset", root, "--elevation", elevation],
        }
        for source, extra in compares.items():
            assert run("compare", km_out / "labels_k2.csv", labels, *extra,
                       "--out", tmp_path / f"compare_{source}") == 0
        argvs = [
            ["validate", "--dataset", root],
            ["kmeans", "--dataset", root, "--k", "2,3", "--restarts", "3",
             "--out", tmp_path / "km"],
            ["mistic", "--dataset", root, "--min-years", "3", "--out", tmp_path / "mi"],
            ["render", labels, "--out", tmp_path / "blocked_render"],
        ] + [
            ["compare", km_out / "labels_k2.csv", labels, *extra,
             "--out", tmp_path / f"blocked_compare_{source}"]
            for source, extra in compares.items()
        ]
        proc = fresh_python(SCIPY_BLOCKED, json.dumps([[str(a) for a in v] for v in argvs]))
        assert proc.returncode == 0, proc.stderr
        assert dir_bytes(tmp_path / "km") == dir_bytes(km_out)
        assert dir_bytes(tmp_path / "mi") == dir_bytes(mi_out)
        assert dir_bytes(tmp_path / "blocked_render") == dir_bytes(render_out)
        for source in compares:
            assert dir_bytes(tmp_path / f"blocked_compare_{source}") == dir_bytes(
                tmp_path / f"compare_{source}"
            )


def test_compare_loads_no_numpy_ma(demo_dataset, km_out, mi_out, tmp_path):
    # A plain np.unique imports numpy.ma on its first call (numpy 2.4), about
    # 15 ms of every compare process; the CLI keeps clear of it.
    root, _ = demo_dataset
    labels = [str(km_out / "labels_k2.csv"), str(mi_out / "consensus.csv")]
    for source, extra in {"dataset": ["--dataset", str(root)], "neither": []}.items():
        argv = ["compare", *labels, *extra, "--out", str(tmp_path / source)]
        proc = fresh_python(
            "import json, sys; from gridclust.cli import main; "
            "code = main(json.loads(sys.argv[1])); print('numpy.ma' in sys.modules); "
            "sys.exit(code)",
            json.dumps(argv),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False", source


def test_import_loads_no_process_pool():
    # Worker processes are plain forks (gridclust._forked), so nothing imports these.
    proc = fresh_python(
        "import sys, gridclust.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
