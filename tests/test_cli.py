import json

import numpy as np
import pytest

import kincal as kc
from kincal import matching
from kincal.cli import main


@pytest.fixture
def rig(tmp_path):
    """Scene, rigid (0-joint) model, and a static trajectory on disk."""
    scene_path = tmp_path / "scene.txt"
    kc.save_scene(kc.default_scene(), scene_path)

    model = kc.KinematicModel(kc.Segment(), (),
                              kc.EESegment(alpha=np.pi / 2, z=0.2))
    flags = np.zeros(model.param_count, dtype=bool)
    flags[9] = True  # EE z free; the view alone cannot constrain all six DOF
    model_path = tmp_path / "model.txt"
    kc.save_model(model, kc.ParamMask(flags), model_path)

    traj_path = tmp_path / "traj.txt"
    kc.save_trajectory(kc.TrajectorySpec(static_poses=(np.zeros(0),)), traj_path)
    return tmp_path, scene_path, model_path, traj_path


def simulate_args(rig_paths, out, seed=1, extra=()):
    _, scene, model, traj = rig_paths
    return ["simulate", "--scene", str(scene), "--model", str(model),
            "--trajectory", str(traj), "--seed", str(seed),
            "--rows", "16", "--cols", "16", "--max-range", "6.0",
            "--out", str(out), *extra]


def dataset_bytes(path):
    return b"".join((path / name).read_bytes()
                    for name in ("meta", "points", "joints"))


def test_simulate_writes_dataset(rig, capsys):
    tmp, *_ = rig
    assert main(simulate_args(rig, tmp / "ds")) == 0
    ds = kc.load_dataset(tmp / "ds")
    assert ds.rows == 16 and ds.cols == 16
    assert ds.valid.any()
    assert "valid" in capsys.readouterr().out


def test_simulate_deterministic(rig):
    tmp, *_ = rig
    noisy = ["--sigma-abs", "0.001"]
    assert main(simulate_args(rig, tmp / "a", seed=7, extra=noisy)) == 0
    assert main(simulate_args(rig, tmp / "b", seed=7, extra=noisy)) == 0
    assert dataset_bytes(tmp / "a") == dataset_bytes(tmp / "b")
    assert main(simulate_args(rig, tmp / "c", seed=8, extra=noisy)) == 0
    assert dataset_bytes(tmp / "a") != dataset_bytes(tmp / "c")


def test_simulate_missing_scene_exits_2(rig, capsys):
    tmp, _, model, traj = rig
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--scene", str(tmp / "nope.txt"), "--model", str(model),
              "--trajectory", str(traj), "--out", str(tmp / "ds")])
    assert info.value.code == 2
    assert "nope.txt" in capsys.readouterr().err


def test_config_file_loses_to_explicit_flags(rig):
    tmp, *_ = rig
    config = tmp / "config.json"
    config.write_text(json.dumps({"rows": 4, "seed": 3}))
    args = simulate_args(rig, tmp / "ds", extra=["--config", str(config)])
    # --rows 16 is explicit and wins; config seed loses to --seed 1
    assert main(args) == 0
    assert kc.load_dataset(tmp / "ds").rows == 16

    args = ["simulate", "--scene", args[2], "--model", args[4],
            "--trajectory", args[6], "--config", str(config),
            "--out", str(tmp / "ds2")]
    assert main(args) == 0
    assert kc.load_dataset(tmp / "ds2").rows == 4


def test_calibrate_and_evaluate_roundtrip(rig, capsys):
    tmp, *_ = rig
    workers = matching.QUERY_WORKERS
    assert main(simulate_args(rig, tmp / "d0", seed=1)) == 0
    assert main(simulate_args(rig, tmp / "d1", seed=2)) == 0
    code = main(["calibrate", str(tmp / "d0"), str(tmp / "d1"),
                 "--model", str(tmp / "model.txt"),
                 "--out", str(tmp / "result"), "--threads", "1"])
    assert code == 0
    assert matching.QUERY_WORKERS == workers
    report = (tmp / "result" / "report.txt").read_text()
    assert "converged True" in report
    csv_lines = (tmp / "result" / "iterations.csv").read_text().splitlines()
    assert csv_lines[0] == "iteration,cost,matches,delta_k"
    assert len(csv_lines) >= 2
    # cost column is non-increasing
    costs = [float(line.split(",")[1]) for line in csv_lines[1:]]
    assert all(a >= b for a, b in zip(costs, costs[1:]))

    # identical datasets: the recovered model matches the initial one
    code = main(["evaluate", "--model", str(tmp / "result" / "model.txt"),
                 "--truth", str(tmp / "model.txt"), "--probe-count", "5",
                 "--seed", "0", "--out", str(tmp / "metrics.txt")])
    assert code == 0
    text = (tmp / "metrics.txt").read_text()
    mm = float(text.splitlines()[2].split()[1])
    assert mm < 1e-3


def test_calibrate_needs_two_datasets(rig, capsys):
    tmp, *_ = rig
    assert main(simulate_args(rig, tmp / "d0")) == 0
    with pytest.raises(SystemExit) as info:
        main(["calibrate", str(tmp / "d0"), "--model", str(tmp / "model.txt"),
              "--out", str(tmp / "result")])
    assert info.value.code == 2


def test_calibrate_restores_threads_when_it_fails(rig, capsys):
    tmp, *_ = rig
    workers = matching.QUERY_WORKERS
    noisy = ["--sigma-abs", "0.001"]
    assert main(simulate_args(rig, tmp / "d0", seed=1, extra=noisy)) == 0
    assert main(simulate_args(rig, tmp / "d1", seed=2, extra=noisy)) == 0
    code = main(["calibrate", str(tmp / "d0"), str(tmp / "d1"),
                 "--model", str(tmp / "model.txt"), "--out", str(tmp / "result"),
                 "--threads", "1", "--d-max", "1e-9"])
    assert code == 1
    assert "no validated matches" in capsys.readouterr().err
    assert matching.QUERY_WORKERS == workers


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_calibrate_rejects_thread_counts_below_one(rig, capsys, threads):
    tmp, *_ = rig
    assert main(simulate_args(rig, tmp / "d0", seed=1)) == 0
    assert main(simulate_args(rig, tmp / "d1", seed=2)) == 0
    with pytest.raises(SystemExit) as info:
        main(["calibrate", str(tmp / "d0"), str(tmp / "d1"),
              "--model", str(tmp / "model.txt"), "--out", str(tmp / "result"),
              "--threads", threads])
    assert info.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp / "result").exists()


def test_evaluate_identical_models(rig, capsys):
    tmp, *_ = rig
    code = main(["evaluate", "--model", str(tmp / "model.txt"),
                 "--truth", str(tmp / "model.txt"), "--probe-count", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "orientation_error_deg 0.0" in out
    assert "position_error_mm 0.0" in out


def test_export_ply(rig, tmp_path):
    tmp, *_ = rig
    assert main(simulate_args(rig, tmp / "d0")) == 0
    ds = kc.load_dataset(tmp / "d0")
    out = tmp / "cloud.ply"
    code = main(["export-ply", str(tmp / "d0"), "--model", str(tmp / "model.txt"),
                 "--out", str(out), "--color"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ply"
    assert f"element vertex {int(ds.valid.sum())}" in lines
    header_end = lines.index("end_header")
    assert len(lines) - header_end - 1 == int(ds.valid.sum())
    # colored export carries six columns per vertex
    assert len(lines[header_end + 1].split()) == 6


def test_export_ply_differs_between_models(rig):
    tmp, *_ = rig
    assert main(simulate_args(rig, tmp / "d0")) == 0
    truth_out = tmp / "truth.ply"
    main(["export-ply", str(tmp / "d0"), "--model", str(tmp / "model.txt"),
          "--out", str(truth_out)])

    model, mask = kc.load_model(tmp / "model.txt")
    perturbed = kc.perturb_model(model, mask, 0.02, 0.01, seed=3)
    kc.save_model(perturbed, mask, tmp / "perturbed.txt")
    pert_out = tmp / "pert.ply"
    main(["export-ply", str(tmp / "d0"), "--model", str(tmp / "perturbed.txt"),
          "--out", str(pert_out)])
    assert truth_out.read_text() != pert_out.read_text()


def test_single_point_ply(tmp_path):
    kc.write_ply(tmp_path / "one.ply", np.array([[1.0, 2.0, 3.0]]))
    lines = (tmp_path / "one.ply").read_text().splitlines()
    assert "element vertex 1" in lines
    assert lines[-1].split() == ["1.0", "2.0", "3.0"]
