"""Output checks: digests of deterministic outputs, and planted-truth invariants.

For the default seed every deterministic output is compared against the
digests recorded in ``digests.json``.  For every seed the invariants below
are checked as well; they hold for any input the workloads generate.

Each ``*_invariants`` function returns a list of problems (empty when the
outputs are correct).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

from gridclust import cli as gridclust_cli

KS = (8, 10, 12)
CLASSES = ("CHD", "CLD", "CND")
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_digest(doc) -> str:
    return sha256(json.dumps(doc, sort_keys=True).encode("utf-8"))


def load_digests() -> dict:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def digest_problems(expected: dict[str, str] | None, actual: dict[str, str], stage: str) -> list[str]:
    """Differences between recorded and produced digests of one stage."""
    if expected is None:
        return []
    prefix = stage + "/"
    want = {k: v for k, v in expected.items() if k.startswith(prefix)}
    got = {k: v for k, v in actual.items() if k.startswith(prefix)}
    problems = [f"missing output {k}" for k in sorted(want.keys() - got.keys())]
    problems += [f"unexpected output {k}" for k in sorted(got.keys() - want.keys())]
    problems += [f"digest mismatch {k}" for k in sorted(want.keys() & got.keys()) if want[k] != got[k]]
    return problems


# ---------------------------------------------------------------------------
# CLI outputs


def _normalised(path: Path, workdir: Path) -> bytes:
    """File bytes, with run_meta.json's path-keyed ``inputs`` made relative."""
    data = path.read_bytes()
    if path.name != "run_meta.json":
        return data
    doc = json.loads(data)
    prefix = str(workdir) + "/"
    doc["inputs"] = {k.removeprefix(prefix): v for k, v in doc["inputs"].items()}
    return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")


def cli_digests(workdir: Path, stage: str) -> dict[str, str]:
    out = workdir / "out" / stage
    if not out.is_dir():
        return {}
    return {
        f"{stage}/{p.name}": sha256(_normalised(p, workdir))
        for p in sorted(out.iterdir())
        if p.suffix in (".csv", ".json")
    }


def _labels(path: Path) -> dict[tuple[int, int], int]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "row,col,label":
        raise ValueError(f"{path.name}: bad header")
    cells = {}
    for line in lines[1:]:
        r, c, lab = (int(v) for v in line.split(","))
        cells[(r, c)] = lab
    return cells


def _run_meta_problems(out: Path) -> list[str]:
    meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
    listed = set(meta["outputs"])
    present = {p.name for p in out.iterdir()} - {"run_meta.json"}
    if listed != present:
        return [f"run_meta.json outputs {sorted(listed ^ present)} differ from the files"]
    return []


def cli_invariants(workdir: Path, stage: str, log: str, n: int, n_years: int = 31) -> list[str]:
    """Planted-truth checks on one CLI command's outputs (n x n grid with a
    masked 2 x 2 corner)."""
    valid = n * n - 4
    out = workdir / "out" / stage
    try:
        if stage == "validate":
            return [] if ": OK" in log else ["validate did not report OK"]
        problems = _run_meta_problems(out)
        if stage == "kmeans":
            report = json.loads((out / "kmeans_report.json").read_text(encoding="utf-8"))
            if [r["k"] for r in report["runs"]] != list(KS):
                problems.append("kmeans_report.json does not list k = 8, 10, 12")
            for k in KS:
                cells = _labels(out / f"labels_k{k}.csv")
                if len(cells) != valid:
                    problems.append(f"labels_k{k}.csv labels {len(cells)} cells, not {valid}")
                if set(cells.values()) != set(range(k)):
                    problems.append(f"labels_k{k}.csv does not use exactly {k} clusters")
                if not (out / f"map_k{k}.svg").read_text(encoding="utf-8").endswith("</svg>\n"):
                    problems.append(f"map_k{k}.svg is truncated")
        elif stage == "mistic":
            zones = sorted(out.glob("zones_*.csv"))
            if len(zones) != n_years:
                problems.append(f"{len(zones)} zones files, not {n_years}")
            cores = json.loads((out / "cores.json").read_text(encoding="utf-8"))["cores"]
            peak_a = (n // 2, (n // 2) // 2)
            if not any(
                c["dominance"] == "CHD"
                and any((m["row"], m["col"]) == peak_a for m in c["members"])
                for c in cores
            ):
                problems.append(f"peak A {peak_a} is not a member of a CHD core")
            cells = _labels(out / "consensus.csv")
            if len(cells) != valid:
                problems.append(f"consensus.csv labels {len(cells)} cells, not {valid}")
            if not set(cells.values()) <= {c["id"] for c in cores}:
                problems.append("consensus.csv uses a label that is not a core id")
        elif stage == "compare":
            doc = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
            if not -1.0 <= doc["ari"] <= 1.0:
                problems.append(f"ARI {doc['ari']} outside [-1, 1]")
            if doc["contingency"]["total"] != valid:
                problems.append("contingency total differs from the valid cell count")
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            for side in ("a", "b"):
                if sum(c["cell_count"] for c in summary[side]["clusters"]) != valid:
                    problems.append(f"summary.json side {side} does not cover every cell")
        elif stage == "render":
            svg = (out / "map_consensus.svg").read_text(encoding="utf-8")
            if svg.count("<rect ") != valid + 1:
                problems.append("map_consensus.svg does not draw every labelled cell")
        return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def cli_counts(workdir: Path) -> dict[str, float]:
    """Byte counts read from the dataset and the written outputs."""
    out = workdir / "out"
    hashed = 0
    for meta in out.glob("*/run_meta.json"):
        for name in json.loads(meta.read_text(encoding="utf-8"))["inputs"]:
            path = Path(name) if Path(name).is_absolute() else workdir / name
            hashed += path.stat().st_size
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    payload = sum(p.stat().st_size for p in (workdir / "ds" / "data").glob("*.csv"))
    n_years = len(json.loads((workdir / "ds" / "manifest.json").read_text())["years"])
    return {
        "bytes_hashed": hashed,
        "bytes_written": written,
        "payload_bytes": payload,
        "payload_files": n_years,
    }


# ---------------------------------------------------------------------------
# library outputs


def lib_outputs(steps: dict) -> dict[str, str]:
    """Digests of every deterministic library output, keyed by stage."""
    kmaps = steps["kmeans"]
    result = steps["mistic"]
    table, ari, matches, summary_a, summary_b = steps["compare"]
    digests = {}
    for m in kmaps:
        digests[f"kmeans/labels_k{m.k}"] = sha256(m.labels.tobytes())
    digests["kmeans/inertias"] = _json_digest([repr(m.inertia) for m in kmaps])
    digests["mistic/foci.json"] = _json_digest(gridclust_cli.foci_doc(result.table))
    digests["mistic/cores.json"] = _json_digest(
        gridclust_cli.cores_doc(result.cores, result.table, result.theta_high, result.theta_dom)
    )
    digests["mistic/consensus"] = sha256(result.consensus.labels.tobytes())
    digests["mistic/zones"] = sha256(
        b"".join(result.yearly_zones[y].labels.tobytes() for y in result.years)
    )
    digests["compare/contingency"] = sha256(table.counts.tobytes())
    digests["compare/scores"] = _json_digest([repr(ari), [list(map(repr, m)) for m in matches]])
    digests["compare/summary"] = _json_digest(
        [repr(asdict(s)) for s in summary_a.clusters + summary_b.clusters]
    )
    digests["render/consensus.svg"] = sha256(steps["render"].encode("utf-8"))
    return digests


def lib_invariants(stage: str, steps: dict, stack) -> list[str]:
    valid = int(stack.mask.sum())
    problems = []
    if stage == "kmeans":
        kmaps = steps["kmeans"]
        if [m.k for m in kmaps] != list(KS):
            problems.append("sweep_k did not return k = 8, 10, 12 in order")
        for m in kmaps:
            if m.zone_map().present_labels() != list(range(m.k)):
                problems.append(f"k={m.k} map does not have exactly {m.k} non-empty clusters")
            if int((m.labels >= 0).sum()) != valid:
                problems.append(f"k={m.k} map does not label every valid cell")
            if not (math.isfinite(m.inertia) and m.inertia >= 0):
                problems.append(f"k={m.k} inertia {m.inertia} is not finite and non-negative")
    elif stage == "mistic":
        result = steps["mistic"]
        cores = result.cores
        if not cores:
            problems.append("no cores")
        if sum(len(c.member_cells) for c in cores) != len(result.table.counts):
            problems.append("core members do not partition the focus cells")
        if any(c.dominance not in CLASSES for c in cores):
            problems.append("a core has no dominance class")
        labels = result.consensus.labels
        if int((labels >= 0).sum()) != valid:
            problems.append("consensus does not label every valid cell")
        if labels.max() >= len(cores):
            problems.append("consensus uses a label that is not a core id")
        if any(int((result.yearly_zones[y].labels >= 0).sum()) != valid for y in result.years):
            problems.append("a yearly zone map leaves a valid cell unlabelled")
    elif stage == "compare":
        table, ari, matches, summary_a, summary_b = steps["compare"]
        if not -1.0 <= ari <= 1.0:
            problems.append(f"ARI {ari} outside [-1, 1]")
        if table.total != valid:
            problems.append("contingency total differs from the valid cell count")
        if any(not 0.0 <= score <= 1.0 for _, _, score in matches):
            problems.append("a matched Jaccard score lies outside [0, 1]")
        for name, report in (("k=8", summary_a), ("consensus", summary_b)):
            if sum(s.cell_count for s in report.clusters) != valid:
                problems.append(f"{name} summary does not cover every cell")
    elif stage == "render":
        svg = steps["render"]
        labelled = int((steps["mistic"].consensus.labels >= 0).sum())
        if not svg.endswith("</svg>\n") or svg.count("<rect ") != labelled + 1:
            problems.append("consensus SVG does not draw every labelled cell")
    return problems

