"""Mutation check: every oracle selection below must fail on its mutant.

Usage: ``python3 tests/mutants.py`` (stdlib only; pytest runs the selections).

Each entry names a file under ``src/``, an exact source snippet, its
replacement and a pytest selection.  The script copies ``src/`` to a
temporary directory, runs every selection once on the unmutated copy, then
applies one entry at a time and runs its selection with ``PYTHONPATH`` on the
copy.  It exits non-zero when the unmutated copy fails a selection, when a
snippet does not occur exactly once (a refactor moved it: update the entry),
or when a mutant survives, that is when its selection passes.  A mutant that
breaks collection instead of failing a test counts as an error too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    selection: tuple[str, ...]


POP_ORDER = ("tests/test_mistic_oracles.py", "-k", "pop_order")
COMPONENTS = ("tests/test_mistic_oracles.py", "-k", "components")
DETECTION = ("tests/test_mistic.py", "-k", "brute_force")
CONSENSUS = ("tests/test_mistic.py", "-k", "consensus")
LABEL_TOKENS = ("tests/test_cli.py", "-k", "non_integer_token")
GRID_TOKENS = ("tests/test_ingest.py", "-k", "TestTokenGrammar")
FORKED_ERRORS = ("tests/test_forked.py", "-k", "first_error")
KMEANS = ("tests/test_kmeans_oracles.py",)
FOCUS_ARRAYS = ("tests/test_mistic_oracles.py", "-k", "per_focus_checks")
MINING = ("tests/test_mistic_oracles.py", "-k", "counter")
ZONE_TO_CORE = ("tests/test_mistic_oracles.py", "-k", "zone_to_core")
CELL_RULE = ("tests/test_mistic_oracles.py", "-k", "cell_rule")
CORES = ("tests/test_mistic_oracles.py", "-k", "extents_and_consensus or beyond_int32")
FOCI = ("tests/test_mistic.py", "-k", "TestFoci")
ZONE_MAP = ("tests/test_gridcore.py", "-k", "TestZoneMap")

MISTIC = "gridclust/mistic.py"
KMEANS_PY = "gridclust/kmeans.py"

MUTANTS = [
    # The watershed's sorted pop order.
    Mutant("late cells are not moved", MISTIC,
           "    moved = merge_at != replay\n",
           "    moved = np.zeros(replay.size, dtype=bool)\n", POP_ORDER),
    Mutant("the replay floods across levels", MISTIC,
           "starts.tolist(), grid.offsets, True)",
           "starts.tolist(), grid.offsets, False)", POP_ORDER),
    Mutant("no check that the replay reaches every late cell", MISTIC,
           "    if replay.size < starts.size + late.sum():\n        return None\n",
           "", POP_ORDER),
    Mutant("component labels one node below the root", MISTIC,
           "            return lab\n",
           "            return lab - 1\n", COMPONENTS),
    # Components named by their root, and focus detection that reads them.
    Mutant("component labels one node above the root", MISTIC,
           "            return lab\n",
           "            return lab + 1\n", COMPONENTS),
    Mutant("a component spanning every valid cell emits a focus", MISTIC,
           "~blocked & (size < total_valid)]",
           "~blocked]", DETECTION),
    # Foci as arrays: the watershed's checks, mining and the zone-to-core
    # translation on int64 arrays.
    Mutant("the watershed fault is taken from the last faulty focus", MISTIC,
           "        i = int(fault.argmax())\n",
           "        i = fault.size - 1 - int(fault[::-1].argmax())\n", FOCUS_ARRAYS),
    Mutant("the duplicate check flags the first occurrence, not the repeat", MISTIC,
           "    repeated[by_seed[1:]] = seeds",
           "    repeated[by_seed[:-1]] = seeds", FOCUS_ARRAYS),
    Mutant("the mining counts are one too high", MISTIC,
           "dict(zip(cells, n[order].tolist()))",
           "dict(zip(cells, (n[order] + 1).tolist()))", MINING),
    Mutant("an anchor outside every core maps to core 0", MISTIC,
           "    core_at = np.full(geom.ncells, -1, dtype=np.int64)\n",
           "    core_at = np.zeros(geom.ncells, dtype=np.int64)\n", ZONE_TO_CORE),
    Mutant("a CellTable label past its anchors reads as an anchored zone", MISTIC,
           "np.where(flat < len(anchors), flat, -1)",
           "np.minimum(flat, len(anchors) - 1)", ZONE_TO_CORE),
    Mutant("the bounds rule takes an off-grid anchor or member as a grid cell", MISTIC,
           "    return np.where(inside, rows * geom.ncols + cols, -1)\n",
           "    return rows * geom.ncols + cols\n", ZONE_TO_CORE),
    Mutant("the cell reader's fast path takes a float cell", MISTIC,
           "    return set(map(type, coords)) <= {int} and (\n",
           "    return set(map(type, coords)) <= {int, float} and (\n", ZONE_TO_CORE),
    Mutant("the nearest-member distance wraps in int64", MISTIC,
           "dist = (hi.view(np.uint64) - lo.view(np.uint64)).max(axis=1)",
           "dist = (hi - lo).max(axis=1)", ZONE_TO_CORE),
    # One cell rule for focus lists, table keys, anchors and core members:
    # an int within int64.
    Mutant("the cell rule takes 1.5 as 1", MISTIC,
           "    if i is None or i != v or not -2**63 <= i < 2**63:\n",
           "    if i is None or not -2**63 <= i < 2**63:\n", CELL_RULE),
    Mutant("the cell rule takes ints beyond int64", MISTIC,
           "    if i is None or i != v or not -2**63 <= i < 2**63:\n",
           "    if i is None or i != v:\n", CELL_RULE),
    Mutant("table keys that are CellIndex of ints skip the int64 bound", MISTIC,
           "        -2**63 <= min(coords, default=0) <= max(coords, default=0) < 2**63\n",
           "        True\n", CELL_RULE),
    Mutant("table counts are kept as given", MISTIC,
           "    if not set(map(type, counts.values())) <= {int}:\n",
           "    if False:\n", CELL_RULE),
    Mutant("a cell of one or three coordinates ends in a bare ValueError", MISTIC,
           "    except (TypeError, ValueError):\n",
           "    except TypeError:\n", CELL_RULE),
    Mutant("zone-map anchor labels are truncated by int()", "gridclust/gridcore.py",
           '            label = as_integer("anchor label", k)\n',
           "            label = int(k)\n", ZONE_MAP),
    Mutant("Foci shares the arrays it is given", "gridclust/gridcore.py",
           "    out = arr.astype(dtype)\n",
           "    out = arr.astype(dtype, copy=False)\n", FOCI),
    # Cores from one int64 array: ordered by (-max count, first cell), and
    # refused beyond the int32 range where close pairs are exact.
    Mutant("core order ignores the maximum count", MISTIC,
           "    by_core = np.lexsort((root, -top[root]))\n",
           "    by_core = np.lexsort((root,))\n", CORES),
    Mutant("tied cores ordered by their last cell", MISTIC,
           "    by_core = np.lexsort((root, -top[root]))\n",
           "    last = np.zeros(n, dtype=np.int64)\n"
           "    np.maximum.at(last, root, np.arange(n))\n"
           "    by_core = np.lexsort((last[root], -top[root]))\n", CORES),
    Mutant("core grouping takes table keys beyond int32", MISTIC,
           "    if beyond.any():\n",
           "    if False:\n", CORES),
    # Consensus ties go to the smaller core id.
    Mutant("consensus ties go to the larger core id", MISTIC,
           "    winner = votes.argmax(axis=0)  # first max = smallest id\n",
           "    winner = len(votes) - 1 - votes[::-1].argmax(axis=0)\n", CONSENSUS),
    # Label-CSV and grid-CSV tokens.
    Mutant("label-CSV tokens may hold non-ASCII digits", "gridclust/cli.py",
           "t.isascii() and t.removeprefix",
           "t.removeprefix", LABEL_TOKENS),
    Mutant("grid-CSV tokens may carry U+001F", "gridclust/ingest.py",
           """    if not all(lines) or any("\\x1f" in line for line in lines):\n""",
           "    if not all(lines):\n", GRID_TOKENS),
    # forked_map raises the first error in job order.
    Mutant("forked_map raises the last error in job order", "gridclust/_forked.py",
           "    results = []\n",
           "    for i in sorted(replies, reverse=True):\n        if not replies[i][0]:\n"
           "            raise replies[i][1]\n    results = []\n", FORKED_ERRORS),
    # k-means centroids and seeding keep their bits.
    Mutant("centroid rows sorted by an unstable sort", KMEANS_PY,
           'np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable")',
           'np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="quicksort")', KMEANS),
    Mutant("centroids multiply by the reciprocal count", KMEANS_PY,
           "    return sums / counts[:, None]\n",
           "    return sums * (1.0 / counts[:, None])\n", KMEANS),
    Mutant("centroid sort key one type too narrow at k = 257", KMEANS_PY,
           "np.min_scalar_type(k - 1)",
           "np.min_scalar_type(k - 2)", KMEANS),
    Mutant("seeding columns summed by sum(axis=1)", KMEANS_PY,
           '        dists[:, j] = column = np.einsum("ij,ij->i", diff, diff)\n',
           "        dists[:, j] = column = (diff * diff).sum(axis=1)\n", KMEANS),
    # The matrix-product assignment keeps a candidate only beyond its
    # rounding bound, and near-ties take the full row.
    Mutant("the matrix-product filter has no rounding bound", KMEANS_PY,
           "    err = (p + 3) * 2.0**-53 * (4.5 * (xx + cc.max()) + 1.0)\n",
           "    err = 0.0\n", KMEANS),
    Mutant("the matrix-product filter keeps every candidate", KMEANS_PY,
           "    sure = second - best > 2.0 * err\n",
           "    sure = np.ones(best.size, dtype=bool)\n", KMEANS),
]


def run_selection(src: Path, selection: tuple[str, ...]) -> subprocess.CompletedProcess:
    # No bytecode: a restored file can keep the size and mtime of its mutant.
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-profile=gridclust-mutants", *selection]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


def tail(proc: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((proc.stdout + proc.stderr).splitlines()[-lines:])


def main() -> int:
    errors: list[str] = []
    with tempfile.TemporaryDirectory(prefix="gridclust-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for m in MUTANTS:
            found = (src / m.file).read_text().count(m.snippet)
            if found != 1:
                errors.append(f"{m.name}: snippet occurs {found} times in src/{m.file}")
        for selection in dict.fromkeys(m.selection for m in MUTANTS):
            start = time.perf_counter()
            proc = run_selection(src, selection)
            print(f"unmutated  {' '.join(selection)}: exit {proc.returncode}"
                  f" ({time.perf_counter() - start:.1f} s)", flush=True)
            if proc.returncode != 0:
                errors.append(f"the unmutated tree fails {' '.join(selection)}\n{tail(proc)}")
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1

        for m in MUTANTS:
            path = src / m.file
            original = path.read_text()
            path.write_text(original.replace(m.snippet, m.replacement))
            start = time.perf_counter()
            try:
                proc = run_selection(src, m.selection)
            finally:
                path.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")
            print(f"{verdict:<10} {m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
            if proc.returncode == 0:
                errors.append(f"mutant survived: {m.name} ({' '.join(m.selection)})")
            elif proc.returncode != 1:
                errors.append(f"mutant {m.name}: pytest exit {proc.returncode}\n{tail(proc)}")
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
