"""Run one kincal benchmark workload, check its outputs, print its metrics.

Usage, from the root of the repository:

    python3 bench/run.py --workload depth_kinect --seed 1 --seconds 15 --trace 0

The run repeats operations of the workload (set up inputs from the seed,
run the timed body, check the output) until the timed bodies add up to
``--seconds``.  It prints the run environment, one line per operation and
one line per metric with its unit; the last line of standard output is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The speed of a shared host drifts by tens of percent over minutes, so a
fixed reference computation that does not use kincal runs after every
set-up and body, and ``wall_s`` and ``setup_s`` are scaled by
``REFERENCE_S`` over the run's median reference time.  The measured
times are printed as ``raw_wall_s`` and ``raw_setup_s``.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` runs every operation twice on the same inputs, untraced and
traced, reports per-layer metrics from the spans, prints a self-time
table and writes the spans to ``.bench_traces/``.

kincal is imported from ``src/`` of the checkout this file lives in; the
run fails without printing a result when that is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_traces"
# set-up is repeated until it has run this often and this long in a run,
# so setup_s is a median over several set-ups even when one takes
# milliseconds
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 1.0
MAX_SETUPS = 200
# typical duration of reference_work() on the 2-vCPU host the benchmark
# was tuned on; times are reported as if the run's host ran at that speed
REFERENCE_S = 0.025
# a reference sample is the median of this many runs of reference_work(),
# so one stalled run does not rescale an operation
REFERENCE_REPEATS = 3

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def import_kincal():
    """Put the checkout's ``src`` first on the path and import kincal
    from there; exit with an error when it is missing."""
    package = ROOT / "src" / "kincal"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: kincal sources not found at {package}")
    sys.path.insert(0, str(package.parent))
    import kincal
    if Path(kincal.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported kincal from {kincal.__file__}, "
                         f"not from {package}")


def environment():
    import numpy as np
    import scipy
    from kincal import matching

    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = next((int(os.environ[var]) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if os.environ.get(var, "").isdigit()), nproc)
    kdtree_workers = matching.QUERY_WORKERS
    kdtree_threads = nproc if kdtree_workers == -1 else kdtree_workers
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "kdtree_threads": kdtree_threads,
        "processes": 1,
        "threads_within_nproc": max(blas_threads, kdtree_threads) <= nproc,
    }


def reference_work():
    """Fixed work in the mix kincal does: 4x4 products in a Python loop,
    vectorized numpy, and a k-d tree query on all cores."""
    import numpy as np
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(0)
    pose = np.eye(4)
    for angle in rng.uniform(-np.pi, np.pi, 300):
        c, s = np.cos(angle), np.sin(angle)
        pose = pose @ np.array([[c, -s, 0.0, 0.1], [s, c, 0.0, 0.0],
                                [0.0, 0.0, 1.0, 0.05], [0.0, 0.0, 0.0, 1.0]])
    points = rng.normal(size=(20000, 3))
    cKDTree(points).query(points[:10000] + 0.01, workers=-1)
    return float(np.einsum("ij,ij->", points, points)) + pose[0, 0]


def reference_seconds():
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def attempt(workload, inputs, tracer=None):
    """Run and check one operation: (body seconds, problems, figures)."""
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            output = workload.body(inputs)
        except Exception as exc:  # a raising operation counts as failed
            return (time.perf_counter() - start,
                    [f"raised {type(exc).__name__}: {exc}"], {})
        wall = time.perf_counter() - start
    try:
        problems, figures = workload.check(inputs, output)
    except Exception as exc:  # so does output the check cannot read
        problems, figures = [f"check raised {type(exc).__name__}: {exc}"], {}
    return wall, problems, figures


def run(workload, seed, seconds, tracer=None, log=print):
    """Repeat operations until their timed bodies add up to ``seconds``.

    Returns a dict of per-operation lists: ``raw_setup``, ``raw_wall``
    (untraced bodies) and ``raw_traced_wall`` as measured, the same
    scaled to the reference host speed without the ``raw_`` prefix,
    ``reference`` times, ``figures`` and ``failures``, and the
    ``attempted`` count.
    """
    from kincal import matching

    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    saved_workers = matching.QUERY_WORKERS
    runs = {key: [] for key in ("raw_setup", "raw_wall", "raw_traced_wall",
                                "reference", "figures", "failures")}
    runs["attempted"] = 0

    def record(key, raw_times):
        runs[key] += raw_times
        runs["reference"].append(reference_seconds())

    timed = runs["raw_traced_wall"] if tracer is not None else runs["raw_wall"]
    try:
        runs["reference"].append(reference_seconds())
        k = 0
        while not timed or sum(timed) < seconds:
            start = time.perf_counter()
            inputs = workload.setup(seed, k, workdir)
            record("raw_setup", [time.perf_counter() - start])
            passes = [("raw_wall", None)]
            if tracer is not None:
                passes.append(("raw_traced_wall", tracer))
            for key, pass_tracer in passes:
                wall, problems, figures = attempt(workload, inputs,
                                                  pass_tracer)
                record(key, [wall])
                runs["attempted"] += 1
                if figures:
                    runs["figures"].append(figures)
                status = "ok" if not problems else "FAILED: " + "; ".join(problems)
                label = "traced" if pass_tracer is not None else "body"
                log(f"op {k}: setup {runs['raw_setup'][-1]:.3f} s, "
                    f"{label} {wall:.3f} s, {status}")
                if problems:
                    runs["failures"].append((k, problems))
            k += 1
        extra = []
        while len(runs["raw_setup"]) + len(extra) < MIN_SETUPS or (
                sum(runs["raw_setup"]) + sum(extra) < MIN_SETUP_SECONDS
                and len(runs["raw_setup"]) + len(extra) < MAX_SETUPS):
            start = time.perf_counter()
            workload.setup(seed, k, workdir)
            extra.append(time.perf_counter() - start)
            k += 1
        if extra:
            record("raw_setup", extra)
    finally:
        matching.QUERY_WORKERS = saved_workers
        shutil.rmtree(workdir, ignore_errors=True)
    speed = REFERENCE_S / statistics.median(runs["reference"])
    for key in ("setup", "wall", "traced_wall"):
        runs[key] = [raw * speed for raw in runs["raw_" + key]]
    return runs


def summary_metrics(runs):
    """End-to-end metrics with their units, including the accuracy and
    failure figures that are printed but not part of the JSON result."""
    figures = runs["figures"]
    metrics = {
        "wall_s": (statistics.median(runs["wall"]), "s"),
        "setup_s": (statistics.median(runs["setup"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "raw_wall_s": (statistics.median(runs["raw_wall"]), "s"),
        "raw_setup_s": (statistics.median(runs["raw_setup"]), "s"),
        "reference_s": (statistics.median(runs["reference"]), "s"),
        "failed_frac": (len(runs["failures"]) / runs["attempted"], "frac"),
    }
    if figures:
        for name, unit in (("pos_err_mm", "mm"), ("rot_err_deg", "deg"),
                           ("converged_frac", "frac")):
            metrics[name] = (statistics.fmean(f[name] for f in figures), unit)
    return metrics


def accuracy_layer_metrics(summary):
    """Accuracy figures as per-layer metrics; 0 where a workload has no
    calibration."""
    return {f"accuracy.{name}": summary.get(name, (0.0, unit))
            for name, unit in (("pos_err_mm", "mm"), ("rot_err_deg", "deg"),
                               ("converged_frac", "frac"),
                               ("failed_frac", "frac"))}


def self_time_table(tracer, ops, traced_s):
    lines = [f"{'layer':36s} {'calls/op':>10s} {'incl s/op':>10s} "
             f"{'self s/op':>10s} {'self %':>7s}"]
    totals = tracer.layer_totals()
    for layer, (calls, incl, self_s) in sorted(
            totals.items(), key=lambda item: -item[1][2]):
        lines.append(f"{layer:36s} {calls / ops:10.1f} {incl / ops:10.4f} "
                     f"{self_s / ops:10.4f} {100 * self_s / traced_s:7.2f}")
    for layer in tracer.absent:
        lines.append(f"{layer:36s} absent")
    return lines


def main(argv=None, workloads=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_kincal()
    if workloads is None:
        from workloads import WORKLOADS as workloads
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads)}")
    from tracing import Tracer, layer_metrics

    env = environment()
    print("env " + json.dumps(env))
    workload = workloads[args.workload]()
    tracer = Tracer() if args.trace else None
    runs = run(workload, args.seed, args.seconds, tracer)
    summary = summary_metrics(runs)

    if tracer is None:
        metrics = {name: summary[name] for name in END_TO_END}
    else:
        ops = len(runs["traced_wall"])
        traced_s = sum(runs["raw_traced_wall"])
        metrics = layer_metrics(tracer, ops)
        metrics.update(accuracy_layer_metrics(summary))
        metrics["trace.overhead_frac"] = (
            sum(runs["traced_wall"]) / sum(runs["wall"]) - 1.0, "frac")
        for line in self_time_table(tracer, ops, traced_s):
            print(line)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "env": env, "absent": tracer.absent})
        print(f"spans: {len(tracer.spans)} written to {path}")

    for name, (value, unit) in {**summary, **metrics}.items():
        print(f"metric {name} = {value!r} {unit}")
    failed = len(runs["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runs["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
