"""Per-layer metrics from recorded spans and counts.

Each traced pipeline pass yields one value per metric; a run reports the
mean over the workload's inputs of the median over each input's traced
passes.  Set-up spans are summarised by their median over set-up
repetitions.  Count metrics are properties of the inputs and
the code, so they repeat exactly between runs of one seed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

MB = 1e6

# Spans reported as total wall and CPU seconds per pipeline pass.
TIMED_SPANS = (
    "cli.import",
    "ingest.validate_dataset",
    "ingest.load_dataset",
    "ingest.build_annual_stack",
    "kmeans.build_features",
    "kmeans.sweep_k",
    "mistic.run_mistic",
    "mistic.detect_focus_points",
    "mistic.watershed_zones",
    "mistic.build_cores",
    "mistic.consensus_zone_map",
    "analysis.contingency",
    "analysis.matched_jaccard",
    "analysis.cluster_summary",
    "gridcore.slope_field",
    "render.zone_map_svg",
)
SETUP_SPANS = ("ingest.write_dataset", "synth.make_planted_stack")

COUNTS = {
    "cli.bytes_hashed": "bytes",
    "cli.bytes_written": "bytes",
    "ingest.parse_calls": "count",
    "ingest.payload_MB": "MB",
    "ingest.parse_MBps": "MB/s",
    "kmeans.run_kmeans_calls": "count",
    "kmeans.lloyd_iters": "count",
    "kmeans.ms_per_lloyd_iter": "ms",
    "mistic.focus_cells": "count",
    "mistic.foci": "count",
    "mistic.us_per_watershed_cell": "us",
    "mistic.cores": "count",
    "mistic.cores_chd": "count",
    "mistic.cores_cld": "count",
    "mistic.cores_cnd": "count",
    "analysis.labels_compared": "count",
    "render.svg_bytes": "bytes",
}


def _timed_names() -> list[str]:
    names = []
    for span in TIMED_SPANS + ("cli.self",) + SETUP_SPANS:
        names += [f"{span}_s", f"{span}.cpu_s"]
    return names


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "s" for name in _timed_names()}
    units.update({
        "kmeans.run_kmeans_s": "s",
        "kmeans.run_kmeans.cpu_s": "s",
        "kmeans.run_kmeans_tail_s": "s",
    })
    units.update(COUNTS)
    units["trace_overhead_frac"] = "ratio"
    return units


def _sum(spans, name, key):
    return sum(s[key] for s in spans if s["name"] == name)


def _count(spans, name, key):
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)


def _tail(samples: list[float]) -> float:
    """The highest quantile with at least ten samples above it (the
    maximum when there are fewer than eleven)."""
    ordered = sorted(samples)
    return ordered[max(len(ordered) - 11, 0)] if len(ordered) > 10 else ordered[-1]


def pipeline_layers(spans: list[dict], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced pipeline pass."""
    out = {}
    for name in TIMED_SPANS:
        out[f"{name}_s"] = _sum(spans, name, "wall")
        out[f"{name}.cpu_s"] = _sum(spans, name, "cpu")
    commands = [s for s in spans if s["name"] == "cli.main"]
    out["cli.self_s"] = sum(s["wall"] - s["child_wall"] for s in commands)
    out["cli.self.cpu_s"] = sum(s["cpu"] - s["child_cpu"] for s in commands)
    out["cli.bytes_hashed"] = counts.get("bytes_hashed", 0)
    out["cli.bytes_written"] = counts.get("bytes_written", 0)

    parses = sum(1 for s in spans if s["name"] in ("ingest.validate_dataset", "ingest.load_dataset"))
    out["ingest.parse_calls"] = parses * counts.get("payload_files", 0)
    payload_mb = counts.get("payload_bytes", 0) / MB
    out["ingest.payload_MB"] = payload_mb
    parse_s = out["ingest.validate_dataset_s"] + out["ingest.load_dataset_s"]
    out["ingest.parse_MBps"] = payload_mb * parses / parse_s if parse_s > 0 else 0.0

    runs = [s for s in spans if s["name"] == "kmeans.run_kmeans"]
    walls = [s["wall"] for s in runs]
    out["kmeans.run_kmeans_s"] = statistics.median(walls) if walls else 0.0
    out["kmeans.run_kmeans.cpu_s"] = statistics.median(s["cpu"] for s in runs) if runs else 0.0
    out["kmeans.run_kmeans_tail_s"] = _tail(walls) if walls else 0.0
    out["kmeans.run_kmeans_calls"] = len(runs)
    iters = _count(spans, "kmeans.run_kmeans", "iters")
    out["kmeans.lloyd_iters"] = iters
    out["kmeans.ms_per_lloyd_iter"] = 1000.0 * sum(walls) / iters if iters else 0.0

    for key in ("focus_cells", "cores", "cores_chd", "cores_cld", "cores_cnd"):
        out[f"mistic.{key}"] = _count(spans, "mistic.run_mistic", key)
    out["mistic.foci"] = _count(spans, "mistic.detect_focus_points", "foci")
    cells = _count(spans, "mistic.watershed_zones", "cells")
    out["mistic.us_per_watershed_cell"] = (
        1e6 * out["mistic.watershed_zones_s"] / cells if cells else 0.0
    )
    out["analysis.labels_compared"] = _count(spans, "analysis.contingency", "labels")
    out["render.svg_bytes"] = _count(spans, "render.zone_map_svg", "bytes")
    return out


def setup_layers(spans: list[dict]) -> dict[str, float]:
    """Per-layer values of one set-up repetition."""
    out = {}
    for name in SETUP_SPANS:
        out[f"{name}_s"] = _sum(spans, name, "wall")
        out[f"{name}.cpu_s"] = _sum(spans, name, "cpu")
    return out


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over several passes."""
    by_key = defaultdict(list)
    for sample in samples:
        for key, value in sample.items():
            by_key[key].append(value)
    return {key: statistics.median(values) for key, values in by_key.items()}



def mean_over_inputs(groups: list[list[dict[str, float]]]) -> dict[str, float]:
    """Per-key mean over a workload's inputs of the per-key median over each
    input's passes."""
    per_input = [medians(group) for group in groups]
    return {key: statistics.fmean(m[key] for m in per_input) for key in per_input[0]}
