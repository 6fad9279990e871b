"""Command-line pipeline: validate, kmeans, mistic, compare, render.

Exit codes: 0 success, 2 validation/parameter failure, 3 I/O failure.
Every writing command computes all of its outputs before it writes any, then
writes them with a ``run_meta.json`` beside them.  That file records every
parsed argument except ``--out`` (``--k`` as the parsed list and
``--orientation`` as resolved), the tool version, the SHA-256 hashes of the
inputs and the names of the outputs; all CSV/JSON outputs are byte-identical
across reruns with identical inputs.

Label CSVs are read into arrays of cells and labels.  ``compare`` and
``render`` without ``--dataset`` never build a grid sized by the largest row
or column in them, so their memory grows with the number of labelled cells.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    ELEVATION_HIGH_BAND_M,
    ELEVATION_LOW_BAND_M,
    cluster_summary,
    compare_maps,
)
from .errors import GridClustError, ParameterError
from .gridcore import PLANAR, GridGeometry, ZoneMap, slope_field
from .ingest import (
    DATA_DIR,
    ELEVATION_NAME,
    MANIFEST_NAME,
    load_annual_stack,
    load_elevation,
    validate_dataset,
)
from .kmeans import build_features, sweep_k
from .mistic import MisticParams, run_mistic
from .render import cells_svg, scatter_svg, zone_map_svg

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3

_INT32_MAX = np.iinfo(np.int32).max


# ---------------------------------------------------------------------------
# inputs and outputs

def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_outputs(
    args, files: dict[str, str], inputs: dict[str, str], notices=(), **resolved
) -> None:
    """Write ``files`` (name -> text) into ``--out``, then ``run_meta.json``.

    Its ``parameters`` are the parsed arguments except the command and
    ``--out``, with the values the command resolved (``resolved``) in place
    of the raw ones.
    """
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    parameters.update(resolved)
    meta = {
        "command": args.command,
        "version": __version__,
        "parameters": parameters,
        "inputs": inputs,
        "outputs": sorted(files),
        "notices": list(notices),
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in {**files, "run_meta.json": _json_text(meta)}.items():
        with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load(args, hash_elevation: bool = True):
    """Manifest, annual stack and input hashes of ``--dataset``, the stack
    built one year file at a time; the hashes cover the manifest, every year
    file and, with ``hash_elevation``, ``elevation.csv`` if there is one."""
    root = Path(args.dataset)
    manifest, stack = load_annual_stack(root, args.min_valid_fraction)
    paths = [root / MANIFEST_NAME] + [root / DATA_DIR / f"{y}.csv" for y in manifest.years]
    if hash_elevation and (root / ELEVATION_NAME).exists():
        paths.append(root / ELEVATION_NAME)
    return manifest, stack, {str(p): _sha256(p) for p in paths}


def _labels_csv(labels: np.ndarray) -> str:
    lines = ["row,col,label"]
    rows, cols = np.nonzero(labels >= 0)
    for r, c in zip(rows, cols):
        lines.append(f"{r},{c},{int(labels[r, c])}")
    return "\n".join(lines) + "\n"


def _read_labels_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The (m, 2) int64 cells and the int32 labels of a labels CSV, in file order."""
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines or lines[0].strip() != "row,col,label":
        raise ParameterError(f"{path}: expected header 'row,col,label'")
    line_of: dict[tuple[int, int], int] = {}
    labels: list[int] = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParameterError(f"{path} line {i}: expected 'row,col,label'")
        tokens = [part.strip() for part in parts]
        try:
            # int() alone would also take '+', '_' and non-ASCII digits, which
            # the grid-CSV reader refuses; it refuses over 4,300 digits itself.
            if not all(t.isascii() and t.removeprefix("-").isdigit() for t in tokens):
                raise ValueError
            r, c, lab = map(int, tokens)
        except ValueError:
            raise ParameterError(f"{path} line {i}: non-integer entry") from None
        if r < 0 or c < 0 or lab < 0:
            raise ParameterError(f"{path} line {i}: negative entry")
        for name, value in (("row", r), ("col", c), ("label", lab)):
            if value > _INT32_MAX:
                raise ParameterError(f"{path} line {i}: {name} {value} does not fit in int32")
        if (r, c) in line_of:
            raise ParameterError(
                f"{path} line {i}: cell ({r}, {c}) already labeled on line {line_of[r, c]}"
            )
        line_of[r, c] = i
        labels.append(lab)
    cells = np.array(list(line_of), dtype=np.int64).reshape(-1, 2)
    return cells, np.array(labels, dtype=np.int32)


def _zone_map(geometry: GridGeometry, cells: np.ndarray, labels: np.ndarray) -> ZoneMap:
    outside = np.flatnonzero((cells >= geometry.shape).any(axis=1))
    if outside.size:
        cell = tuple(cells[outside[0]].tolist())
        raise ParameterError(f"label cell {cell} outside the dataset grid {geometry.shape}")
    grid = np.full(geometry.shape, -1, dtype=np.int32)
    grid[cells[:, 0], cells[:, 1]] = labels
    return ZoneMap(geometry, grid, {})


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
    ks = _parse_k_list(args.k)
    manifest, stack, inputs = _load(args)
    features = build_features(stack)
    results = sweep_k(features, ks, seed=args.seed, restarts=args.restarts)

    files = {}
    runs = []
    for run in results:
        files[f"labels_k{run.k}.csv"] = _labels_csv(run.labels)
        files[f"map_k{run.k}.svg"] = zone_map_svg(run.zone_map(), args.cell_px)
        runs.append(
            {
                "k": run.k,
                "inertia": run.inertia,
                "iterations": run.iterations,
                "seed": run.seed,
                "converged_by": run.converged_by,
                "cells": int((run.labels >= 0).sum()),
            }
        )
    report = {"variable": manifest.variable, "years": list(stack.years), "runs": runs}
    files["kmeans_report.json"] = _json_text(report)
    _write_outputs(args, files, inputs, k=ks)
    for run in results:
        print(f"k={run.k}: inertia={run.inertia:.6g} iterations={run.iterations}")
    return EXIT_OK


def _resolve_orientation(orientation: str, variable: str) -> str:
    if orientation != "auto":
        return orientation
    return "minima" if "min" in variable.lower() else "maxima"


def _cmd_mistic(args) -> int:
    manifest, stack, inputs = _load(args)
    orientation = _resolve_orientation(args.orientation, manifest.variable)
    params = MisticParams(
        orientation=orientation,
        min_years=args.min_years,
        mode=args.mode,
        radius=args.radius,
        theta_high=args.theta_high,
        theta_dom=args.theta_dom,
    )
    result = run_mistic(stack, params)

    files = {
        f"zones_{year}.csv": _labels_csv(result.yearly_zones[year].labels)
        for year in result.years
    }
    files["foci.json"] = _json_text(foci_doc(result.table))
    files["cores.json"] = _json_text(
        cores_doc(result.cores, result.table, result.theta_high, result.theta_dom)
    )
    files["consensus.csv"] = _labels_csv(result.consensus.labels)
    files["map_consensus.svg"] = zone_map_svg(result.consensus, args.cell_px)
    _write_outputs(args, files, inputs, result.notices, orientation=orientation)
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
        "elevation_bands_m": [ELEVATION_LOW_BAND_M, ELEVATION_HIGH_BAND_M],
    }


def _cmd_compare(args) -> int:
    cells_a, labels_a = _read_labels_csv(Path(args.labels_a))
    cells_b, labels_b = _read_labels_csv(Path(args.labels_b))
    inputs = {name: _sha256(Path(name)) for name in (args.labels_a, args.labels_b)}

    stack = elevation = slope = None
    if args.dataset:
        # --elevation is read in place of the dataset's own elevation.csv.
        manifest, stack, dataset_inputs = _load(args, hash_elevation=not args.elevation)
        inputs.update(dataset_inputs)
        geometry = manifest.geometry
        elev_path = Path(args.elevation) if args.elevation else Path(args.dataset) / ELEVATION_NAME
        if elev_path.exists():
            elevation = load_elevation(elev_path, geometry, manifest.missing_value)
            slope = slope_field(elevation)
        if args.elevation:
            inputs[args.elevation] = _sha256(Path(args.elevation))
    elif args.elevation:
        raise ParameterError("--elevation requires --dataset (grid geometry is unknown otherwise)")
    else:
        if not len(cells_a) + len(cells_b):
            raise ParameterError(
                f"{args.labels_a} and {args.labels_b} label no cells, so the grid "
                "size is unknown; pass --dataset"
            )
        # Without a dataset the scores and summaries depend only on each
        # cell's pair of labels, so the labelled cells are laid on one row.
        union, index = np.unique(
            np.concatenate([cells_a, cells_b]), axis=0, return_inverse=True
        )
        geometry = GridGeometry(PLANAR, 0.0, 0.0, 1.0, 1.0, 1, len(union))
        index = index.ravel()
        cells = np.column_stack([np.zeros_like(index), index])
        cells_a, cells_b = cells[: len(cells_a)], cells[len(cells_a) :]

    map_a = _zone_map(geometry, cells_a, labels_a)
    map_b = _zone_map(geometry, cells_b, labels_b)
    comparison = compare_maps(map_a, map_b)
    table = comparison.table
    comparison_doc = {
        "ari": comparison.ari,
        "contingency": {
            "labels_a": list(table.labels_a),
            "labels_b": list(table.labels_b),
            "counts": [[int(v) for v in row] for row in table.counts],
            "total": table.total,
        },
        "coverage": {"joint": table.total, "only_a": table.only_a, "only_b": table.only_b},
        "matched_jaccard": [
            {"label_a": la, "label_b": lb, "jaccard": score}
            for la, lb, score in comparison.matches
        ],
    }
    report_a = cluster_summary(map_a, elevation, slope, stack)
    report_b = cluster_summary(map_b, elevation, slope, stack)
    files = {
        "comparison.json": _json_text(comparison_doc),
        "summary.json": _json_text({"a": _summary_doc(report_a), "b": _summary_doc(report_b)}),
    }
    if elevation is not None:
        series_pts = []
        for name, report in (("A", report_a), ("B", report_b)):
            pts = [
                (s.mean_slope, s.mean_elevation, f"{name}{s.label}")
                for s in report.clusters
                if s.mean_slope is not None and s.mean_elevation is not None
            ]
            series_pts.append((name, pts))
        files["elev_slope.svg"] = scatter_svg(
            series_pts, "mean slope (degrees)", "mean elevation (m)"
        )
    _write_outputs(args, files, inputs)
    print(f"ARI = {comparison.ari:.6f} over {table.total} jointly labeled cells")
    return EXIT_OK


def _cmd_render(args) -> int:
    path = Path(args.labels)
    cells, labels = _read_labels_csv(path)
    if not len(cells):
        raise ParameterError(f"{path}: no labeled cells to render")
    shape = tuple(int(n) + 1 for n in cells.max(axis=0))
    order = np.lexsort((cells[:, 1], cells[:, 0]))  # row-major
    name = f"map_{path.stem}.svg"
    svg = cells_svg(shape, cells[order], labels[order], args.cell_px)
    _write_outputs(args, {name: svg}, {str(path): _sha256(path)})
    print(f"wrote {Path(args.out) / name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_out(sub, cell_px: bool = True) -> None:
    sub.add_argument("--out", default="out", help="output directory (default: out)")
    if cell_px:
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
    _add_out(p)
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
    _add_out(p)
    p.set_defaults(func=_cmd_mistic)

    p = subs.add_parser("compare", help="contingency, ARI, matched Jaccard, terrain summaries")
    p.add_argument("labels_a", help="first labels CSV (row,col,label)")
    p.add_argument("labels_b", help="second labels CSV")
    p.add_argument("--dataset", default=None, help="dataset for geometry/value statistics")
    p.add_argument("--elevation", default=None, help="elevation CSV (requires --dataset)")
    p.add_argument("--min-valid-fraction", type=float, default=1.0)
    _add_out(p, cell_px=False)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("render", help="re-render a labels CSV as an SVG map")
    p.add_argument("labels", help="labels CSV (row,col,label)")
    _add_out(p)
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
