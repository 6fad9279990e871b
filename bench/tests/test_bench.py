"""Tests of the benchmark itself (not of gridclust).

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import dataclasses
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridclust
import check
import inputs
import metrics
import run
from launcher import Launcher
from spans import Tracer
from workloads import CliWorkload, LibSpec, LibWorkload

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SMALL_LIB = LibSpec("relief_stack", 16, gridclust.MisticParams("minima", 12, "cr", 2))


@pytest.fixture(scope="module")
def launcher():
    with Launcher() as launcher:
        yield launcher


def _stack_digest(stack) -> str:
    h = hashlib.sha256()
    for field in stack.fields:
        h.update(field.values.tobytes())
    return h.hexdigest()


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_metric_names_and_units_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in declared]
    assert len(names) == len(set(names))
    for m in declared:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.make_workloads(ROOT, None))


def test_layer_map_names_declared_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]} | set(run.SHOWN_ONLY)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(layers["workloads"]) == workloads
    for layer in layers["layers"].values():
        assert set(layer["metrics"]) <= per_layer
        assert set(layer["moves"]) <= end_to_end
        assert set(layer["mostly_on"]) | set(layer["little_on"]) <= workloads


@pytest.mark.parametrize("builder", ["noisy_stack", "relief_stack"])
def test_library_inputs_follow_the_seed(builder):
    build = getattr(inputs, builder)
    first = _stack_digest(build(40, 5)[0])
    assert _stack_digest(build(40, 5)[0]) == first
    assert _stack_digest(build(40, 6)[0]) != first


def test_library_workload_has_distinct_inputs_per_seed():
    def digests(seed):
        workload = LibWorkload("small", SMALL_LIB)
        workload.setup(seed)
        return [_stack_digest(stack) for stack, _ in workload._inputs]

    first = digests(5)
    assert len(set(first)) == LibWorkload.n_inputs
    assert digests(5) == first
    assert not set(digests(6)) & set(first)


def test_cli_inputs_follow_the_seed(tmp_path):
    inputs.planted_dataset(tmp_path / "a", 8, 5)
    inputs.planted_dataset(tmp_path / "b", 8, 5)
    inputs.planted_dataset(tmp_path / "c", 8, 6)
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "c")


def test_tracing_leaves_library_outputs_unchanged():
    workload = LibWorkload("small", SMALL_LIB)
    plain = workload.pipeline(3, traced=False)
    traced = workload.pipeline(3, traced=True)
    assert plain.failed_ops == traced.failed_ops == 0, plain.problems + traced.problems
    assert plain.digests == traced.digests
    assert {s["name"] for s in traced.spans} >= {
        "kmeans.sweep_k", "kmeans.run_kmeans", "mistic.watershed_zones", "render.zone_map_svg"
    }
    # The wrappers are removed again afterwards.
    assert not hasattr(gridclust.run_mistic, "__wrapped__")


def test_tracing_leaves_cli_outputs_unchanged(tmp_path, launcher):
    workload = CliWorkload("small", 8, ROOT, tmp_path, launcher)
    workload.setup(3)
    plain = workload.pipeline(3, traced=False)
    traced = workload.pipeline(3, traced=True)
    assert plain.failed_ops == traced.failed_ops == 0, plain.problems + traced.problems
    assert plain.attempted == 5
    assert plain.digests == traced.digests
    mains = [s for s in traced.spans if s["name"] == "cli.main"]
    assert len(mains) == 5


def test_traced_counts_repeat_exactly():
    workload = LibWorkload("small", SMALL_LIB)
    first, second = (
        metrics.pipeline_layers(workload.pipeline(4, traced=True).spans, {}) for _ in range(2)
    )
    units = metrics.per_layer_units()
    counted = [k for k, unit in units.items() if unit in ("count", "bytes")]
    assert counted and all(first[k] == second[k] for k in counted)
    assert first["kmeans.run_kmeans_calls"] == 30
    assert first["mistic.foci"] > 0 and first["mistic.cores"] > 0


def test_peak_rss_pass_runs_the_route_in_a_child(launcher):
    run_ = run.peak_rss_pass("lib-relief40", 3, launcher)
    assert run_.attempted == 1 and run_.failed_ops == 0, run_.problems


def test_corrupted_library_output_is_a_failure(monkeypatch):
    workload = LibWorkload("small", SMALL_LIB)
    clean = workload.pipeline(3, traced=False)
    original = gridclust.run_mistic

    def corrupted(stack, params):
        result = original(stack, params)
        labels = np.array(result.consensus.labels)
        labels[0, 0] = len(result.cores)  # not a core id
        consensus = gridclust.ZoneMap(result.consensus.geometry, labels, {})
        return dataclasses.replace(result, consensus=consensus)

    monkeypatch.setattr(gridclust, "run_mistic", corrupted)
    bad = workload.pipeline(3, traced=False)
    assert clean.failed_ops == 0
    assert bad.failed_ops >= 1
    assert any(p.startswith("mistic:") for p in bad.problems)


def test_changed_output_fails_the_digest_check(tmp_path, launcher):
    workload = CliWorkload("small", 8, ROOT, tmp_path, launcher)
    workload.setup(3)
    clean = workload.pipeline(3, traced=False)
    workload.expected = [dict(clean.digests)]
    assert workload.pipeline(3, traced=False).failed_ops == 0

    # Swap two cluster ids: every invariant still holds, only the digest differs.
    path = tmp_path / "out" / "kmeans" / "labels_k8.csv"
    lines = path.read_text().splitlines()
    swapped = [lines[0]] + [
        ",".join(p[:2] + [{"0": "1", "1": "0"}.get(p[2], p[2])])
        for p in (line.split(",") for line in lines[1:])
    ]
    path.write_text("\n".join(swapped) + "\n")
    assert check.cli_invariants(tmp_path, "kmeans", "", 8) == []
    digests = check.cli_digests(tmp_path, "kmeans")
    assert check.digest_problems(workload.expected[0], digests, "kmeans") == [
        "digest mismatch kmeans/labels_k8.csv"
    ]


def test_tracer_records_self_time_and_counts():
    tracer = Tracer()

    def inner():
        return "x" * 10

    def outer():
        return tracer.call("inner", inner)

    tracer.call("outer", outer)
    outer_span, inner_span = tracer.spans
    assert inner_span["parent"] == 0 and outer_span["parent"] == -1
    assert outer_span["child_wall"] == inner_span["wall"] <= outer_span["wall"]


def test_result_line_and_missing_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lib-relief40", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(metrics.per_layer_units())

    # A directory holding only the benchmark cannot run it.
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lib-relief40", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_gauge_scales_wall_time_by_the_kernels_around_it(monkeypatch):
    import reference

    probes = iter([
        {"python": 0.1, "numpy": 0.1},
        {"python": 0.3, "numpy": 0.1},
        {"python": 0.2, "numpy": 0.3},
    ])
    monkeypatch.setattr(reference, "probe", lambda names: next(probes))
    gauge = reference.Gauge(("python", "numpy"))
    # Python kernel took 0.2 s on average around the stage, twice nominal.
    assert gauge.scale(4.0, ("python",)) == pytest.approx(2.0)
    # Both kernels took 0.45 s together on average, against 0.2 s nominal.
    assert gauge.scale(9.0, ("python", "numpy")) == pytest.approx(4.0)
    assert gauge.factors == pytest.approx([2.0, 2.25])


def test_reference_kernels_are_deterministic():
    import reference

    assert reference.python_kernel() == reference.python_kernel()
    assert reference.numpy_kernel() == reference.numpy_kernel()


def test_launcher_reports_the_childs_own_peak_rss_and_kills_overruns(tmp_path, launcher):
    ballast = np.ones(100_000_000 // 8)  # this process now holds 100 MB more
    code, _, rss_kb = launcher.run(
        [sys.executable, "-c", "pass"], 60, tmp_path, {}, tmp_path / "log"
    )
    assert code == 0 and rss_kb * 1024 < ballast.nbytes / 2
    code, wall, _ = launcher.run(
        [sys.executable, "-c", "import time; time.sleep(30)"], 0.5, tmp_path, {}, tmp_path / "log"
    )
    assert code == -1 and wall < 10
