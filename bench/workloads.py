"""The benchmark's workloads: inputs from a seed, and one pipeline run.

A workload builds its inputs (``setup``) and then runs its route once per
``pipeline`` call, returning the wall time of each stage, the outputs to
check, and per-operation failures.  Each route is a closed loop with one
client: a command or call starts when the previous one returns.

- ``CliWorkload``: the five ``gridclust`` CLI commands, each in its own
  process, on a planted GTS dataset written to disk.
- ``LibWorkload``: the library route of the README's "Library use" section
  on in-memory annual-mean stacks.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gridclust
from gridclust import render, synth

import check
import inputs
from spans import Tracer, merge

BENCH_DIR = Path(__file__).resolve().parent
TRACED_CLI = BENCH_DIR / "traced_cli.py"
COMMAND_TIMEOUT_S = 100.0
RESTARTS = 10
# Inputs per seed of a library workload.  Across ten seeds, the k-means work
# of one input (the sum of k x Lloyd iterations over its 30 runs) spreads by
# 0.16 (noisy) and 0.24 (relief) of its median (IQR/median); its mean over
# four inputs by 0.06 and 0.10, and over eight by 0.04 and 0.06.
LIB_INPUTS = 8
LIB_STAGES = ("kmeans", "mistic", "compare", "render")
# The reference kernels (reference.py) that gauge the host's speed for each
# library stage: mistic and render are plain Python, the others mix Python
# and numpy.  Every CLI command is gauged by the start-up kernel.
STAGE_KERNELS = {
    "kmeans": ("python", "numpy"),
    "mistic": ("python",),
    "compare": ("python", "numpy"),
    "render": ("python",),
}
# Stages long enough to probe after; compare and render take milliseconds.
PROBED_STAGES = ("kmeans", "mistic")


@dataclass
class PipelineRun:
    """One pass over a workload's route."""

    stages: dict[str, float] = field(default_factory=dict)  # stage -> wall seconds
    ref_stages: dict[str, float] = field(default_factory=dict)  # stage -> reference seconds
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed_ops: int = 0
    spans: list[dict] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    peak_rss_kb: int = 0  # highest peak RSS of the pass's child processes

    @property
    def pipeline_s(self) -> float:
        return sum(self.stages.values())

    @property
    def ref_pipeline_s(self) -> float:
        return sum(self.ref_stages.values())

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed_ops += 1
            self.problems.extend(f"{op}: {p}" for p in problems)


def child_env(root: Path) -> dict[str, str]:
    """Environment for CLI children: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# ---------------------------------------------------------------------------
# CLI workload


CLI_COMMANDS = (
    ("validate", ["validate", "--dataset", "ds"]),
    ("kmeans", ["kmeans", "--dataset", "ds", "--out", "out/kmeans"]),
    ("mistic", ["mistic", "--dataset", "ds", "--out", "out/mistic"]),
    (
        "compare",
        [
            "compare", "out/kmeans/labels_k8.csv", "out/mistic/consensus.csv",
            "--dataset", "ds", "--out", "out/compare",
        ],
    ),
    ("render", ["render", "out/mistic/consensus.csv", "--out", "out/render"]),
)


class CliWorkload:
    """Planted n x n x 31-year dataset on disk, driven through the CLI."""

    kind = "cli"
    n_inputs = 1
    kernels = ("startup",)

    def __init__(self, name: str, n: int, root: Path, workdir: Path, launcher) -> None:
        self.name = name
        self.n = n
        self.root = root
        self.workdir = workdir
        self.launcher = launcher  # launcher.Launcher: starts the commands
        self.env = child_env(root)
        self.expected: list[dict[str, str]] | None = None  # recorded digests, if checked

    def setup(self, seed: int) -> None:
        ds = self.workdir / "ds"
        if ds.exists():
            shutil.rmtree(ds)
        inputs.planted_dataset(ds, self.n, seed)

    def _run(self, argv: list[str], spans_path: Path | None) -> tuple[float, int, int, str]:
        if spans_path is None:
            cmd = [sys.executable, "-m", "gridclust", *argv]
        else:
            cmd = [sys.executable, str(TRACED_CLI), str(spans_path), *argv]
        log_path = self.workdir / "command.log"
        code, wall, rss_kb = self.launcher.run(
            cmd, COMMAND_TIMEOUT_S, self.workdir, self.env, log_path
        )
        return wall, code, rss_kb, log_path.read_text(encoding="utf-8", errors="replace")

    def pipeline(self, seed: int, traced: bool, index: int = 0, gauge=None) -> PipelineRun:
        out = self.workdir / "out"
        expected = None if self.expected is None else self.expected[index]
        if out.exists():
            shutil.rmtree(out)
        run = PipelineRun()
        spans_path = self.workdir / "spans.json" if traced else None
        for stage, argv in CLI_COMMANDS:
            wall, code, rss_kb, log = self._run(argv, spans_path)
            run.stages[stage] = wall
            run.peak_rss_kb = max(run.peak_rss_kb, rss_kb)
            if gauge is not None:
                run.ref_stages[stage] = gauge.scale(wall, self.kernels)
            if code != 0:
                run.record(stage, [f"exit code {code}: {log.strip()[-500:]}"])
                break
            if spans_path is not None:
                merge(run.spans, json.loads(spans_path.read_text())["spans"])
            digests = check.cli_digests(self.workdir, stage)
            run.digests.update(digests)
            run.record(
                stage,
                check.cli_invariants(self.workdir, stage, log, self.n)
                + check.digest_problems(expected, digests, stage),
            )
        if traced:
            run.counts.update(check.cli_counts(self.workdir))
        return run


# ---------------------------------------------------------------------------
# library workloads


@dataclass(frozen=True)
class LibSpec:
    builder: str  # name of a function in inputs.py
    n: int
    params: gridclust.MisticParams


class LibWorkload:
    """In-memory annual-mean stacks driven through the library API; input
    ``i`` of seed ``s`` is built from seed ``s * LIB_INPUTS + i``."""

    kind = "lib"
    n_inputs = LIB_INPUTS
    kernels = ("python", "numpy")

    def __init__(self, name: str, spec: LibSpec) -> None:
        self.name = name
        self.spec = spec
        self.expected: list[dict[str, str]] | None = None  # per input, if checked
        self._inputs: list[tuple] = []

    def setup(self, seed: int) -> None:
        build = getattr(inputs, self.spec.builder)
        self._inputs = [build(self.spec.n, seed * LIB_INPUTS + i) for i in range(LIB_INPUTS)]

    def _compare(self, kmap, consensus, stack, truth):
        table = gridclust.contingency(kmap, consensus)
        ari = gridclust.adjusted_rand(table)
        matches = gridclust.matched_jaccard(table)
        elevation = synth.planted_elevation(truth, stack)
        slope = gridclust.slope_field(elevation)
        summary_a = gridclust.cluster_summary(kmap, elevation, slope, stack)
        summary_b = gridclust.cluster_summary(consensus, elevation, slope, stack)
        return table, ari, matches, summary_a, summary_b

    def pipeline(self, seed: int, traced: bool, index: int = 0, gauge=None) -> PipelineRun:
        if not self._inputs:
            self.setup(seed)
        stack, truth = self._inputs[index]
        expected = None if self.expected is None else self.expected[index]
        run = PipelineRun()
        tracer = Tracer()
        steps = {}

        def step(stage: str, fn):
            start = time.perf_counter()
            try:
                steps[stage] = fn()
                problem = None
            except Exception as exc:  # a failing route call counts as a failed operation
                problem = f"{type(exc).__name__}: {exc}"
            run.stages[stage] = time.perf_counter() - start
            if gauge is not None:
                run.ref_stages[stage] = gauge.scale(
                    run.stages[stage], STAGE_KERNELS[stage], stage in PROBED_STAGES
                )
            if problem:
                run.record(stage, [problem])
            return problem is None

        def kmeans():
            features = gridclust.build_features(stack)
            return gridclust.sweep_k(features, list(check.KS), seed=0, restarts=RESTARTS)

        with tracer if traced else contextlib.nullcontext():
            ok = step("kmeans", kmeans)
            ok = ok and step("mistic", lambda: gridclust.run_mistic(stack, self.spec.params))
            ok = ok and step(
                "compare",
                lambda: self._compare(
                    steps["kmeans"][0].zone_map(), steps["mistic"].consensus, stack, truth
                ),
            )
            ok = ok and step("render", lambda: render.zone_map_svg(steps["mistic"].consensus))
        run.spans = tracer.spans
        if not ok:
            return run
        run.digests = check.lib_outputs(steps)
        for stage in LIB_STAGES:
            run.record(
                stage,
                check.lib_invariants(stage, steps, stack)
                + check.digest_problems(expected, run.digests, stage),
            )
        return run
