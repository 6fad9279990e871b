"""gridclust benchmark: one workload, timed end to end or traced per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload lib-noisy40 --seed 1 --seconds 30 --trace 0

The benchmark builds its inputs from ``--seed``, then repeats the workload's
route until ``--seconds`` have passed (set-up included), checking every
output.  A library workload has eight inputs per seed and its passes cycle
through them; each metric is the mean over the inputs of its median over
that input's passes.  With ``--trace 0`` it reports the end-to-end
metrics, each time in reference seconds: wall time scaled by the speed of
fixed kernels run next to it (``reference.py``), so that the host's drifting
speed cancels out.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics in wall and CPU seconds.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--record-digests`` instead runs every workload once per input on the
default seed and writes the digests of its outputs to ``bench/digests.json``.
``--one-pass`` runs one untraced pass of a workload on its first input and
exits 0 when its outputs pass their checks; a timed run of a library
workload starts it as a child process to read the route's peak RSS.

It imports gridclust from ``src/`` of the checkout it sits in and exits
with code 2 when those sources are missing.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
MB = 1e6

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "kmeans_s": "s",
    "mistic_s": "s",
    "peak_rss_mb": "MB",
}
# Also printed, but too short or too rare to repeat within a bound; and the
# pipeline's wall time with the median host factor (kernel time / nominal)
# that scaled it to reference seconds.
SHOWN_ONLY = {"validate_s": "s", "compare_s": "s", "pipeline_wall_s": "s", "host_factor": "ratio"}
# Reference kernels that gauge the host's speed during set-up.
SETUP_KERNELS = ("python", "numpy")


def _import_gridclust():
    """Import gridclust from this checkout's ``src/``, or return None."""
    if not (SRC / "gridclust" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import gridclust

    if Path(gridclust.__file__).resolve().parent != (SRC / "gridclust").resolve():
        return None
    return gridclust


def make_workloads(workdir: Path, launcher) -> dict:
    """Workload name -> workload object.  Sizes are part of the names."""
    import gridclust
    from workloads import CliWorkload, LibSpec, LibWorkload

    return {
        "cli-planted8": CliWorkload("cli-planted8", 8, ROOT, workdir, launcher),
        "lib-noisy40": LibWorkload(
            "lib-noisy40",
            LibSpec("noisy_stack", 40, gridclust.MisticParams("maxima", 12, "cc")),
        ),
        "lib-relief40": LibWorkload(
            "lib-relief40",
            LibSpec("relief_stack", 40, gridclust.MisticParams("minima", 12, "cr", 2)),
        ),
    }


# Set-up is repeated for at least this long (and at least this often) and
# its median reported: a library stack takes a few milliseconds to build.
SETUP_SECONDS = 1.0
SETUP_MIN_REPEATS = 3


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "gridclust").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
    }


def measure(workload, seed: int, seconds: float, traced: bool, launcher) -> dict:
    """Set up, then run passes until ``seconds`` have elapsed since the start.

    Passes cycle through the workload's inputs, and every input runs at least
    once.  A metric is the mean over the inputs of its median over that
    input's passes, so it does not depend on how many passes fit.
    """
    import contextlib
    import gc

    from metrics import mean_over_inputs, medians, pipeline_layers, setup_layers
    from reference import Gauge
    from spans import Tracer

    start = time.perf_counter()
    # Untraced runs report times in reference seconds (reference.py).
    gauge = None if traced else Gauge(SETUP_KERNELS)
    setups, setup_samples = [], []
    while len(setups) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer if traced else contextlib.nullcontext():
            workload.setup(seed)
        wall = time.perf_counter() - t0
        setups.append(wall if gauge is None else gauge.scale(wall, SETUP_KERNELS))
        setup_samples.append(setup_layers(tracer.spans))

    runs = []
    if workload.kind == "lib" and not traced:
        runs.append(peak_rss_pass(workload.name, seed, launcher))
    if not traced:
        gauge = Gauge(workload.kernels)

    plain = [[] for _ in range(workload.n_inputs)]
    traced_runs = [[] for _ in range(workload.n_inputs)]
    longest = 0.0
    for i in itertools.count(1):
        index = (i - 1) % workload.n_inputs
        t0 = time.perf_counter()
        for with_trace in ((False, True) if traced else (False,)):
            # Collect the last pass's garbage outside the timed route.
            gc.collect()
            run = workload.pipeline(seed, with_trace, index, None if with_trace else gauge)
            (traced_runs if with_trace else plain)[index].append(run)
        longest = max(longest, time.perf_counter() - t0)
        # Start another pass only if it should end within the time budget.
        if i >= workload.n_inputs and time.perf_counter() - start + longest > seconds:
            break

    runs += [r for group in plain + traced_runs for r in group]
    result = {
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed_ops for r in runs),
        "problems": [p for r in runs for p in r.problems],
        "passes": sum(map(len, plain)),
        "setups": len(setups),
    }
    if result["failed"]:
        result["metrics"] = {}
        return result
    if not traced:
        result["metrics"] = end_to_end(setups, plain, runs)
        result["metrics"]["host_factor"] = statistics.median(gauge.factors)
        return result
    layers = mean_over_inputs(
        [[pipeline_layers(r.spans, r.counts) for r in group] for group in traced_runs]
    )
    layers.update(medians(setup_samples))
    untraced_s = mean_over_inputs([[{"s": r.pipeline_s} for r in g] for g in plain])["s"]
    traced_s = mean_over_inputs([[{"s": r.pipeline_s} for r in g] for g in traced_runs])["s"]
    layers["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    result["metrics"] = layers
    return result


def end_to_end(setups: list[float], runs_by_input: list[list], runs: list) -> dict[str, float]:
    from metrics import mean_over_inputs

    metrics = mean_over_inputs([
        [
            {
                "pipeline_s": r.ref_pipeline_s,
                **{f"{k}_s": v for k, v in r.ref_stages.items()},
                "pipeline_wall_s": r.pipeline_s,
            }
            for r in group
        ]
        for group in runs_by_input
    ])
    metrics["setup_s"] = statistics.median(setups)
    # Every route process is a child: the CLI commands, or the library pass
    # of ``peak_rss_pass``.
    metrics["peak_rss_mb"] = max(r.peak_rss_kb for r in runs) * 1024 / MB
    return metrics


def peak_rss_pass(name: str, seed: int, launcher):
    """One untraced pass of a library workload in a child process (``--one-pass``),
    so that the route's peak RSS excludes this harness; counts as one operation."""
    from workloads import PipelineRun, child_env

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--one-pass"]
    run = PipelineRun()
    WORK.mkdir(exist_ok=True)
    log = WORK / f"peak-rss-{os.getpid()}.log"
    try:
        code, _, run.peak_rss_kb = launcher.run(cmd, 150, ROOT, child_env(ROOT), log)
        output = log.read_text(errors="replace").strip()
    finally:
        log.unlink(missing_ok=True)
    run.record("peak-rss pass", [] if code == 0 else [f"exit code {code}: {output[-500:]}"])
    return run


def record_digests(workdir: Path, launcher) -> int:
    """Run each workload once per input on the default seed and write the
    digests of its outputs."""
    from check import DIGESTS_PATH

    recorded = {}
    for name, workload in make_workloads(workdir, launcher).items():
        workload.setup(DEFAULT_SEED)
        runs = [workload.pipeline(DEFAULT_SEED, False, i) for i in range(workload.n_inputs)]
        problems = [p for r in runs for p in r.problems]
        if problems:
            print(f"{name}: not recording, outputs fail their checks: {problems}",
                  file=sys.stderr)
            return 1
        recorded[name] = [r.digests for r in runs]
        print(f"{name}: recorded", flush=True)
    DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--one-pass", action="store_true")
    args = parser.parse_args(argv)

    if _import_gridclust() is None:
        print(f"error: no gridclust sources under {SRC}", file=sys.stderr)
        return 2
    from launcher import Launcher

    workdir = WORK / f"{args.workload or 'record'}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with Launcher() as launcher:
            return _run(parser, args, workdir, launcher)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def _run(parser, args, workdir: Path, launcher) -> int:
    if args.record_digests:
        return record_digests(workdir, launcher)
    workloads = make_workloads(workdir, launcher)
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    workload = workloads[args.workload]
    if args.seed == DEFAULT_SEED:
        from check import load_digests

        # A workload without recorded digests fails on every output.
        workload.expected = load_digests().get(workload.name, [{}] * workload.n_inputs)
    if args.one_pass:
        return one_pass(workload, args.seed)
    return run_workload(workload, args, launcher)


def one_pass(workload, seed: int) -> int:
    workload.setup(seed)
    run = workload.pipeline(seed, traced=False)
    for problem in run.problems:
        print(f"FAILED {problem}")
    return 1 if run.problems else 0


def run_workload(workload, args, launcher) -> int:
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    result = measure(workload, args.seed, args.seconds, bool(args.trace), launcher)
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}")

    if args.trace:
        from metrics import per_layer_units

        units = per_layer_units()
    else:
        units = dict(END_TO_END, **SHOWN_ONLY)
    metrics = {}
    for name, unit in units.items():
        if name in result["metrics"]:
            metrics[name] = {"value": result["metrics"][name], "unit": unit}
    failed_frac = result["failed"] / max(result["attempted"], 1)
    print(f"workload {workload.name}: {result['setups']} set-ups, {result['passes']} timed passes, "
          f"{result['attempted']} operations, failed_frac {failed_frac:.6g} ratio")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # The result line carries exactly the metrics BENCHMARK.json lists.
        metrics = {k: v for k, v in metrics.items() if k in END_TO_END}
    missing = set(END_TO_END if not args.trace else units) - set(metrics)
    correct = result["failed"] == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
