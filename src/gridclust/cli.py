"""Command-line pipeline: validate, kmeans, mistic, compare, render.

Exit codes: 0 success, 2 validation/parameter failure, 3 I/O failure.
Every command writes a ``run_meta.json`` beside its outputs recording the
full parameter set, tool version, and SHA-256 hashes of the inputs; all
CSV/JSON outputs are byte-identical across reruns with identical inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import adjusted_rand, cluster_summary, contingency, matched_jaccard
from .errors import GridClustError, ParameterError
from .gridcore import PLANAR, CellIndex, GridGeometry, ZoneMap, slope_field
from .ingest import (
    ELEVATION_NAME,
    MANIFEST_NAME,
    build_annual_stack,
    load_dataset,
    load_elevation,
    load_manifest,
    validate_dataset,
)
from .kmeans import build_features, sweep_k
from .mistic import MisticParams, run_mistic
from .render import scatter_svg, zone_map_svg

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# deterministic file helpers

def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _labels_csv(labels: np.ndarray) -> str:
    lines = ["row,col,label"]
    rows, cols = np.nonzero(labels >= 0)
    for r, c in zip(rows, cols):
        lines.append(f"{r},{c},{int(labels[r, c])}")
    return "\n".join(lines) + "\n"


def _read_labels_csv(path: Path) -> dict[CellIndex, int]:
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines or lines[0].strip() != "row,col,label":
        raise ParameterError(f"{path}: expected header 'row,col,label'")
    cells: dict[CellIndex, int] = {}
    line_of: dict[CellIndex, int] = {}
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParameterError(f"{path} line {i}: expected 'row,col,label'")
        try:
            r, c, lab = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParameterError(f"{path} line {i}: non-integer entry") from None
        if r < 0 or c < 0 or lab < 0:
            raise ParameterError(f"{path} line {i}: negative entry")
        if lab > np.iinfo(np.int32).max:
            raise ParameterError(f"{path} line {i}: label {lab} does not fit in int32")
        cell = CellIndex(r, c)
        if cell in line_of:
            raise ParameterError(
                f"{path} line {i}: cell ({r}, {c}) already labeled on line {line_of[cell]}"
            )
        line_of[cell] = i
        cells[cell] = lab
    return cells


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _dataset_input_hashes(root: Path) -> dict[str, str]:
    hashes = {}
    manifest_path = root / MANIFEST_NAME
    hashes[str(manifest_path)] = _sha256(manifest_path)
    manifest = load_manifest(root)
    for rel in manifest.payload_files:
        p = root / rel
        if p.exists():
            hashes[str(p)] = _sha256(p)
    elev = root / ELEVATION_NAME
    if elev.exists():
        hashes[str(elev)] = _sha256(elev)
    return hashes


def _write_run_meta(
    out_dir: Path,
    command: str,
    parameters: dict,
    inputs: dict[str, str],
    outputs: list[str],
    notices: list[str] | None = None,
) -> None:
    _write_json(
        out_dir / "run_meta.json",
        {
            "command": command,
            "version": __version__,
            "parameters": parameters,
            "inputs": inputs,
            "outputs": sorted(outputs),
            "notices": list(notices or []),
        },
    )


def foci_doc(table) -> dict:
    """JSON document for the focus frequency table."""
    return {
        "total_years": table.total_years,
        "min_years": table.min_years,
        "cells": [
            {
                "row": cell.row,
                "col": cell.col,
                "count": table.counts[cell],
                "frequency": table.counts[cell] / table.total_years,
                "frequent": table.is_frequent(cell),
            }
            for cell in table.cells
        ],
    }


def cores_doc(cores, table, theta_high: float, theta_dom: float) -> dict:
    """JSON document for the core list.

    Holds only grouping-derived content (members, dominance, extent size),
    so CC and CR runs that group identically serialize identically.
    """
    return {
        "total_years": table.total_years,
        "min_years": table.min_years,
        "theta_high": theta_high,
        "theta_dom": theta_dom,
        "cores": [
            {
                "id": core.id,
                "dominance": core.dominance,
                "members": [
                    {
                        "row": cell.row,
                        "col": cell.col,
                        "count": count,
                        "frequency": count / core.total_years,
                    }
                    for cell, count in zip(core.member_cells, core.member_counts)
                ],
                "extent_size": core.extent_size,
            }
            for core in cores
        ],
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(args) -> int:
    violations = validate_dataset(args.dataset)
    if violations:
        print(f"dataset {args.dataset}: {len(violations)} violation(s)")
        for v in violations:
            print(f"  - {v}")
        return EXIT_INVALID
    print(f"dataset {args.dataset}: OK")
    return EXIT_OK


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ParameterError(f"--k expects a comma-separated integer list, got {text!r}")
    if not ks:
        raise ParameterError("--k list is empty")
    return ks


def _cmd_kmeans(args) -> int:
    out_dir = Path(args.out)
    ks = _parse_k_list(args.k)
    series = load_dataset(args.dataset)
    stack = build_annual_stack(series, args.min_valid_fraction)
    features = build_features(stack, standardize=True)
    results = sweep_k(features, ks, seed=args.seed, restarts=args.restarts)

    outputs = []
    report = {"variable": series.variable, "years": list(stack.years), "runs": []}
    for run in results:
        name = f"labels_k{run.k}.csv"
        _write_text(out_dir / name, _labels_csv(run.labels))
        outputs.append(name)
        svg_name = f"map_k{run.k}.svg"
        _write_text(out_dir / svg_name, zone_map_svg(run.zone_map(), args.cell_px))
        outputs.append(svg_name)
        report["runs"].append(
            {
                "k": run.k,
                "inertia": run.inertia,
                "iterations": run.iterations,
                "seed": run.seed,
                "converged_by": run.converged_by,
                "cells": int((run.labels >= 0).sum()),
            }
        )
    _write_json(out_dir / "kmeans_report.json", report)
    outputs.append("kmeans_report.json")

    _write_run_meta(
        out_dir,
        "kmeans",
        {
            "dataset": str(args.dataset),
            "k": ks,
            "seed": args.seed,
            "restarts": args.restarts,
            "min_valid_fraction": args.min_valid_fraction,
            "cell_px": args.cell_px,
        },
        _dataset_input_hashes(Path(args.dataset)),
        outputs,
    )
    for run in results:
        print(f"k={run.k}: inertia={run.inertia:.6g} iterations={run.iterations}")
    return EXIT_OK


def _resolve_orientation(orientation: str, variable: str) -> str:
    if orientation != "auto":
        return orientation
    return "minima" if "min" in variable.lower() else "maxima"


def _cmd_mistic(args) -> int:
    out_dir = Path(args.out)
    series = load_dataset(args.dataset)
    stack = build_annual_stack(series, args.min_valid_fraction)
    orientation = _resolve_orientation(args.orientation, series.variable)
    params = MisticParams(
        orientation=orientation,
        min_years=args.min_years,
        mode=args.mode,
        radius=args.radius,
        theta_high=args.theta_high,
        theta_dom=args.theta_dom,
    )
    result = run_mistic(stack, params)

    outputs = []
    for year in result.years:
        name = f"zones_{year}.csv"
        _write_text(out_dir / name, _labels_csv(result.yearly_zones[year].labels))
        outputs.append(name)

    _write_json(out_dir / "foci.json", foci_doc(result.table))
    outputs.append("foci.json")
    _write_json(
        out_dir / "cores.json",
        cores_doc(result.cores, result.table, result.theta_high, result.theta_dom),
    )
    outputs.append("cores.json")

    _write_text(out_dir / "consensus.csv", _labels_csv(result.consensus.labels))
    outputs.append("consensus.csv")
    _write_text(out_dir / "map_consensus.svg", zone_map_svg(result.consensus, args.cell_px))
    outputs.append("map_consensus.svg")

    _write_run_meta(
        out_dir,
        "mistic",
        {
            "dataset": str(args.dataset),
            "orientation": orientation,
            "min_years": args.min_years,
            "mode": args.mode,
            "radius": args.radius,
            "theta_high": args.theta_high,
            "theta_dom": args.theta_dom,
            "min_valid_fraction": args.min_valid_fraction,
            "cell_px": args.cell_px,
        },
        _dataset_input_hashes(Path(args.dataset)),
        outputs,
        notices=list(result.notices),
    )
    for notice in result.notices:
        print(f"notice: {notice}")
    if not result.cores:
        print("no foci detected: wrote empty core list and unlabeled consensus")
    else:
        counts = {}
        for core in result.cores:
            counts[core.dominance] = counts.get(core.dominance, 0) + 1
        breakdown = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"{len(result.cores)} cores ({breakdown}); consensus written")
    return EXIT_OK


def _zone_map_from_cells(cells: dict[CellIndex, int], geometry: GridGeometry) -> ZoneMap:
    labels = np.full(geometry.shape, -1, dtype=np.int32)
    for cell, lab in cells.items():
        if not geometry.contains(cell.row, cell.col):
            raise ParameterError(
                f"label cell {tuple(cell)} outside the dataset grid {geometry.shape}"
            )
        labels[cell.row, cell.col] = lab
    return ZoneMap(geometry, labels, {})


def _summary_doc(report) -> dict:
    return {
        "clusters": [
            {
                "label": s.label,
                "cell_count": s.cell_count,
                "mean_elevation_m": s.mean_elevation,
                "mean_slope_deg": s.mean_slope,
                "value_min": s.value_min,
                "value_mean": s.value_mean,
                "value_max": s.value_max,
            }
            for s in report.clusters
        ],
        "fraction_below_1500_m": report.fraction_below_low_band,
        "fraction_above_2000_m": report.fraction_above_high_band,
        "elevation_bands_m": [report.low_band_m, report.high_band_m],
    }


def _cmd_compare(args) -> int:
    out_dir = Path(args.out)
    cells_a = _read_labels_csv(Path(args.labels_a))
    cells_b = _read_labels_csv(Path(args.labels_b))

    stack = None
    elevation = None
    slope = None
    if args.dataset:
        series = load_dataset(args.dataset)
        stack = build_annual_stack(series, args.min_valid_fraction)
        geometry = series.geometry
        elev_path = Path(args.elevation) if args.elevation else Path(args.dataset) / ELEVATION_NAME
        if elev_path.exists():
            elevation = load_elevation(elev_path, geometry, series.missing_value)
            slope = slope_field(elevation)
    elif args.elevation:
        raise ParameterError("--elevation requires --dataset (grid geometry is unknown otherwise)")
    else:
        all_cells = list(cells_a) + list(cells_b)
        if not all_cells:
            raise ParameterError(
                f"{args.labels_a} and {args.labels_b} label no cells, so the grid "
                "size is unknown; pass --dataset"
            )
        nrows = max(c.row for c in all_cells) + 1
        ncols = max(c.col for c in all_cells) + 1
        geometry = GridGeometry(PLANAR, 0.0, 0.0, 1.0, 1.0, nrows, ncols)

    map_a = _zone_map_from_cells(cells_a, geometry)
    map_b = _zone_map_from_cells(cells_b, geometry)
    table = contingency(map_a, map_b)
    ari = adjusted_rand(table)
    matches = matched_jaccard(table)

    comparison_doc = {
        "ari": ari,
        "contingency": {
            "labels_a": list(table.labels_a),
            "labels_b": list(table.labels_b),
            "counts": [[int(v) for v in row] for row in table.counts],
            "total": table.total,
        },
        "coverage": {"joint": table.total, "only_a": table.only_a, "only_b": table.only_b},
        "matched_jaccard": [
            {"label_a": la, "label_b": lb, "jaccard": score} for la, lb, score in matches
        ],
    }
    _write_json(out_dir / "comparison.json", comparison_doc)
    outputs = ["comparison.json"]

    report_a = cluster_summary(map_a, elevation, slope, stack)
    report_b = cluster_summary(map_b, elevation, slope, stack)
    _write_json(
        out_dir / "summary.json", {"a": _summary_doc(report_a), "b": _summary_doc(report_b)}
    )
    outputs.append("summary.json")

    if elevation is not None:
        series_pts = []
        for name, report in (("A", report_a), ("B", report_b)):
            pts = [
                (s.mean_slope, s.mean_elevation, f"{name}{s.label}")
                for s in report.clusters
                if s.mean_slope is not None and s.mean_elevation is not None
            ]
            series_pts.append((name, pts))
        _write_text(
            out_dir / "elev_slope.svg",
            scatter_svg(series_pts, "mean slope (degrees)", "mean elevation (m)"),
        )
        outputs.append("elev_slope.svg")

    inputs = {
        str(args.labels_a): _sha256(Path(args.labels_a)),
        str(args.labels_b): _sha256(Path(args.labels_b)),
    }
    if args.dataset:
        inputs.update(_dataset_input_hashes(Path(args.dataset)))
    if args.elevation:
        inputs[str(args.elevation)] = _sha256(Path(args.elevation))
    _write_run_meta(
        out_dir,
        "compare",
        {
            "labels_a": str(args.labels_a),
            "labels_b": str(args.labels_b),
            "dataset": str(args.dataset) if args.dataset else None,
            "elevation": str(args.elevation) if args.elevation else None,
            "min_valid_fraction": args.min_valid_fraction,
        },
        inputs,
        outputs,
    )
    print(f"ARI = {ari:.6f} over {table.total} jointly labeled cells")
    return EXIT_OK


def _cmd_render(args) -> int:
    out_dir = Path(args.out)
    path = Path(args.labels)
    cells = _read_labels_csv(path)
    if not cells:
        raise ParameterError(f"{path}: no labeled cells to render")
    nrows = max(c.row for c in cells) + 1
    ncols = max(c.col for c in cells) + 1
    geometry = GridGeometry(PLANAR, 0.0, 0.0, 1.0, 1.0, nrows, ncols)
    zm = _zone_map_from_cells(cells, geometry)
    name = f"map_{path.stem}.svg"
    _write_text(out_dir / name, zone_map_svg(zm, args.cell_px))
    _write_run_meta(
        out_dir,
        "render",
        {"labels": str(args.labels), "cell_px": args.cell_px},
        {str(path): _sha256(path)},
        [name],
    )
    print(f"wrote {out_dir / name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common_out(sub) -> None:
    sub.add_argument("--out", default="out", help="output directory (default: out)")
    sub.add_argument("--cell-px", type=int, default=12, help="cell size in SVG pixels")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridclust",
        description="Spatiotemporal clustering of gridded daily temperature data.",
    )
    parser.add_argument("--version", action="version", version=f"gridclust {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a dataset directory against the GTS format")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("kmeans", help="k-means over per-cell annual-mean series")
    p.add_argument("--dataset", required=True)
    p.add_argument("--k", default="8,10,12", help="comma-separated cluster counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--min-valid-fraction", type=float, default=1.0)
    _add_common_out(p)
    p.set_defaults(func=_cmd_kmeans)

    p = subs.add_parser("mistic", help="year-wise zones, frequent-focus cores, consensus map")
    p.add_argument("--dataset", required=True)
    p.add_argument(
        "--orientation",
        choices=["maxima", "minima", "auto"],
        default="auto",
        help="extremum type to seed zones ('auto' keys off the variable name)",
    )
    p.add_argument("--min-years", type=int, default=12, help="frequent-focus year threshold")
    p.add_argument("--mode", choices=["cc", "cr"], default="cc")
    p.add_argument("--radius", type=int, default=1, help="Chebyshev radius for --mode cr")
    p.add_argument("--theta-high", type=float, default=0.60)
    p.add_argument(
        "--theta-dom",
        type=float,
        default=None,
        help="dominance threshold (default: min_years / total_years)",
    )
    p.add_argument("--min-valid-fraction", type=float, default=1.0)
    _add_common_out(p)
    p.set_defaults(func=_cmd_mistic)

    p = subs.add_parser("compare", help="contingency, ARI, matched Jaccard, terrain summaries")
    p.add_argument("labels_a", help="first labels CSV (row,col,label)")
    p.add_argument("labels_b", help="second labels CSV")
    p.add_argument("--dataset", default=None, help="dataset for geometry/value statistics")
    p.add_argument("--elevation", default=None, help="elevation CSV (requires --dataset)")
    p.add_argument("--min-valid-fraction", type=float, default=1.0)
    _add_common_out(p)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("render", help="re-render a labels CSV as an SVG map")
    p.add_argument("labels", help="labels CSV (row,col,label)")
    _add_common_out(p)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GridClustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
