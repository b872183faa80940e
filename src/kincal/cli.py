"""Command-line entry point: simulate | calibrate | evaluate | export-ply.

Exit codes (stable):
    0  success (for calibrate: converged)
    1  runtime failure (matching failure, singular system, bad data)
    2  missing/unreadable input path or unparsable input file
    3  calibrate ran out of iterations without converging

All outputs are plain text for diffability.  A JSON config file may set
any long-form option; explicitly given command-line flags win over the
config file.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import matching, textio
from .dataset import SensorKind, load_dataset, project_to_base, save_dataset
from .errors import KincalError, ParseError
from .kincore import load_model, save_model
from .optimizer import CalibrationConfig, calibrate
from .ply import write_ply
from .simulator import (NoiseModel, SensorSpec, evaluate_against_truth,
                        load_scene, load_trajectory, simulate_dataset)

# per-dataset palette for export-ply, cycled
_PALETTE = [(228, 26, 28), (55, 126, 184), (77, 175, 74), (152, 78, 163),
            (255, 127, 0), (255, 255, 51), (166, 86, 40), (247, 129, 191)]

_CONFIG_KEYS = ("n", "m", "g_min", "d_max", "f_min", "epsilon", "i_max",
                "lm_lambda0", "lm_max_iterations", "lm_gradient_tol")

_SENSOR_KEYS = ("sensor_kind", "rows", "cols", "fov_rows", "fov_cols",
                "min_range", "max_range", "sigma_abs", "sigma_rel",
                "sample_rate")


def _require_path(path, kind="file"):
    ok = os.path.isdir(path) if kind == "dir" else os.path.isfile(path)
    if not ok:
        raise SystemExit(_fail(f"no such {kind}: {path}", code=2))


def _fail(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_config(path):
    _require_path(path)
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SystemExit(_fail(f"{path}: {exc}", code=2))
    if not isinstance(cfg, dict):
        raise SystemExit(_fail(f"{path}: config must be a JSON object", code=2))
    return cfg


def _merge(args, config, keys):
    """Config file fills in options the command line left at None."""
    out = {}
    for key in keys:
        flag_value = getattr(args, key, None)
        out[key] = flag_value if flag_value is not None else config.get(key)
    return out


def _sensor_from_options(opts):
    defaults = {"sensor_kind": "depth_camera", "rows": 64, "cols": 64,
                "fov_rows": 1.0, "fov_cols": 1.0, "min_range": 0.1,
                "max_range": 6.0, "sigma_abs": 0.0, "sigma_rel": 0.0,
                "sample_rate": 10.0}
    for key, value in defaults.items():
        if opts.get(key) is None:
            opts[key] = value
    return SensorSpec(kind=SensorKind(opts["sensor_kind"]),
                      rows=int(opts["rows"]), cols=int(opts["cols"]),
                      fov_rows=float(opts["fov_rows"]),
                      fov_cols=float(opts["fov_cols"]),
                      min_range=float(opts["min_range"]),
                      max_range=float(opts["max_range"]),
                      noise=NoiseModel(float(opts["sigma_abs"]),
                                       float(opts["sigma_rel"])),
                      sample_rate=float(opts["sample_rate"]))


def _calibration_config(opts, mask):
    values = {k: v for k, v in opts.items() if v is not None}
    for key in ("n", "m", "i_max", "lm_max_iterations"):
        if key in values:
            values[key] = int(values[key])
    for key in ("g_min", "d_max", "f_min", "epsilon", "lm_lambda0",
                "lm_gradient_tol"):
        if key in values:
            values[key] = float(values[key])
    return CalibrationConfig(mask=mask, **values)


def cmd_simulate(args):
    config = _load_config(args.config) if args.config else {}
    for path in (args.scene, args.model, args.trajectory):
        _require_path(path)
    scene = load_scene(args.scene)
    model, _ = load_model(args.model)
    traj = load_trajectory(args.trajectory)
    spec = _sensor_from_options(_merge(args, config, _SENSOR_KEYS))
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))

    ds = simulate_dataset(scene, model, spec, traj, seed)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {ds.rows}x{ds.cols} grid, "
          f"{int(ds.valid.sum())} valid of {ds.rows * ds.cols} points")
    return 0


def cmd_calibrate(args):
    if len(args.datasets) < 2:
        raise SystemExit(_fail("calibrate needs at least two dataset directories",
                               code=2))
    if args.threads is not None and args.threads != -1 and args.threads < 1:
        raise SystemExit(_fail(f"--threads must be -1 (all cores) or at least 1, "
                               f"got {args.threads}", code=2))
    config = _load_config(args.config) if args.config else {}
    _require_path(args.model)
    for path in args.datasets:
        _require_path(path, kind="dir")
    model, mask = load_model(args.model)
    datasets = [load_dataset(path) for path in args.datasets]
    cfg = _calibration_config(_merge(args, config, _CONFIG_KEYS), mask)
    saved_workers = matching.QUERY_WORKERS
    if args.threads is not None:
        matching.QUERY_WORKERS = args.threads
    try:
        report = calibrate(datasets, model, cfg)
    finally:
        matching.QUERY_WORKERS = saved_workers

    os.makedirs(args.out, exist_ok=True)
    save_model(report.final_model, mask, os.path.join(args.out, "model.txt"))
    with open(os.path.join(args.out, "iterations.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "cost", "matches", "delta_k"])
        for i, stats in enumerate(report.iterations, start=1):
            writer.writerow([i, repr(float(stats.cost)), stats.match_count,
                             repr(float(stats.delta_k))])
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(f"datasets {len(datasets)}\n")
        fh.write(f"scale {float(report.scale)!r}\n")
        fh.write(f"iterations {len(report.iterations)}\n")
        fh.write(f"converged {report.converged}\n")
        fh.write(f"final_cost {float(report.iterations[-1].cost)!r}\n")
        fh.write(f"wall_time_s {report.wall_time:.3f}\n")
    status = "converged" if report.converged else "stopped at iteration limit"
    print(f"{status} after {len(report.iterations)} iterations; "
          f"results in {args.out}")
    return 0 if report.converged else 3


def cmd_evaluate(args):
    for path in (args.model, args.truth):
        _require_path(path)
    found, _ = load_model(args.model)
    truth, mask = load_model(args.truth)

    if args.probes is not None:
        _require_path(args.probes)
        probes = []
        for lineno, tokens in textio.records(args.probes):
            try:
                probes.append(np.array([float(t) for t in tokens]))
            except (ValueError, IndexError) as exc:
                raise textio.located(args.probes, lineno, exc) from None
    else:
        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        probes = list(rng.uniform(-np.pi, np.pi,
                                  (args.probe_count, truth.joint_count)))

    rot_deg, pos_mm = evaluate_against_truth(found, truth, probes, mask)
    lines = [f"probes {len(probes)}",
             f"orientation_error_deg {float(rot_deg)!r}",
             f"position_error_mm {float(pos_mm)!r}"]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_export_ply(args):
    _require_path(args.model)
    for path in args.datasets:
        _require_path(path, kind="dir")
    model, _ = load_model(args.model)

    chunks = []
    colors = []
    for k, path in enumerate(args.datasets):
        ds = load_dataset(path)
        proj = project_to_base(ds, model)
        pts = proj.points[proj.valid]
        chunks.append(pts)
        colors.append(np.tile(_PALETTE[k % len(_PALETTE)], (pts.shape[0], 1)))
    points = np.concatenate(chunks) if chunks else np.zeros((0, 3))
    rgb = np.concatenate(colors) if colors else None
    write_ply(args.out, points, rgb if args.color else None)
    print(f"wrote {args.out}: {points.shape[0]} vertices "
          f"from {len(args.datasets)} dataset(s)")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kincal",
        description="Kinematic self-calibration from overlapping range scans.",
        epilog="exit codes: 0 ok, 1 runtime failure, 2 bad input path/parse, "
               "3 calibration stopped without converging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="ray-cast a synthetic scan dataset")
    p.add_argument("--scene", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--config", help="JSON file; explicit flags win")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="dataset directory to write")
    p.add_argument("--sensor-kind", dest="sensor_kind",
                   choices=[k.value for k in SensorKind])
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--fov-rows", dest="fov_rows", type=float)
    p.add_argument("--fov-cols", dest="fov_cols", type=float)
    p.add_argument("--min-range", dest="min_range", type=float)
    p.add_argument("--max-range", dest="max_range", type=float)
    p.add_argument("--sigma-abs", dest="sigma_abs", type=float)
    p.add_argument("--sigma-rel", dest="sigma_rel", type=float)
    p.add_argument("--sample-rate", dest="sample_rate", type=float)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="estimate kinematic parameters")
    p.add_argument("datasets", nargs="+", help="dataset directories")
    p.add_argument("--model", required=True, help="initial model file with mask")
    p.add_argument("--config", help="JSON file; explicit flags win")
    p.add_argument("--threads", type=int,
                   help="nearest-neighbor query workers: -1 (default) for all "
                        "cores, or at least 1")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--g-min", dest="g_min", type=float)
    p.add_argument("--d-max", dest="d_max", type=float)
    p.add_argument("--f-min", dest="f_min", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--i-max", dest="i_max", type=int)
    p.add_argument("--lm-lambda0", dest="lm_lambda0", type=float)
    p.add_argument("--lm-max-iterations", dest="lm_max_iterations", type=int)
    p.add_argument("--lm-gradient-tol", dest="lm_gradient_tol", type=float)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="compare a model against a reference")
    p.add_argument("--model", required=True, help="model under test")
    p.add_argument("--truth", required=True, help="reference model with mask")
    p.add_argument("--probes", help="text file, one joint vector per line")
    p.add_argument("--probe-count", dest="probe_count", type=int, default=500)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-ply", help="project datasets to a PLY cloud")
    p.add_argument("datasets", nargs="+", help="dataset directories")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="PLY file to write")
    p.add_argument("--color", action="store_true",
                   help="one RGB color per dataset")
    p.set_defaults(func=cmd_export_ply)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(str(exc), code=2)
    except FileNotFoundError as exc:
        return _fail(str(exc), code=2)
    except KincalError as exc:
        return _fail(str(exc), code=1)


if __name__ == "__main__":
    sys.exit(main())
