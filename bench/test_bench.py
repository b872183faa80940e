"""Smoke-size tests of the benchmark harness itself.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import kincal as kc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SMOKE = {
    "depth_kinect": lambda: wl.ArmCalibration(scans=6, grid=16, i_max=2),
    "line_sweep": lambda: wl.LineSweepCalibration(scans=6, beams=24,
                                                  lines=16, i_max=1),
    "lidar_export": lambda: wl.LidarExport(beams=8, rotations=10),
    "rigid_pairs": lambda: wl.RigidPair(grid=40),
}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_smoke(capsys, monkeypatch, tmp_path, name, trace, workloads=SMOKE):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], workloads=workloads)
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_untraced_metrics_match_benchmark_json(capsys, monkeypatch, tmp_path,
                                               name):
    result = run_smoke(capsys, monkeypatch, tmp_path, name, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_metrics_match_benchmark_json(capsys, monkeypatch, tmp_path):
    result = run_smoke(capsys, monkeypatch, tmp_path, "depth_kinect", trace=1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["optimizer.jacobian.calls"]["value"] > 0
    spans = (tmp_path / "depth_kinect-seed3.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["workload"] == "depth_kinect"
    assert len(spans) > 1


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in spec()["workloads"]) == sorted(
        wl.WORKLOADS)


class CorruptedCalibration(wl.ArmCalibration):
    """Shifts a masked-out scalar of the calibrated model."""

    def body(self, inputs):
        report = super().body(inputs)
        params = kc.pack_params(report.final_model)
        frozen = np.flatnonzero(~inputs.cfg_mask.flags)
        params[frozen[0]] += 1e-9
        return replace(report, final_model=kc.unpack_params(
            params, report.final_model))


def test_corrupted_final_model_counts_as_failed(capsys, monkeypatch,
                                                tmp_path):
    workloads = {"depth_kinect": lambda: CorruptedCalibration(
        scans=6, grid=16, i_max=2)}
    result = run_smoke(capsys, monkeypatch, tmp_path, "depth_kinect",
                       trace=0, workloads=workloads)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_corrupted_ply_counts_as_failed(capsys, monkeypatch, tmp_path):
    class CorruptedExport(wl.LidarExport):
        def body(self, inputs):
            codes = super().body(inputs)
            with open(inputs.ply, "a") as fh:
                fh.write("0.0 0.0 0.0\n")
            return codes

    result = run_smoke(capsys, monkeypatch, tmp_path, "lidar_export",
                       trace=0, workloads={"lidar_export": lambda:
                                           CorruptedExport(8, 10)})
    assert not result["correct"]


def test_tracer_restores_bindings_and_reports_absent_targets():
    from kincal import dataset, matching, optimizer

    originals = (optimizer.project_to_base, dataset.project_to_base,
                 optimizer.CorrespondenceSet.jacobian)
    targets = tracing.TARGETS + (
        ("gone.layer", "kincal.optimizer", "no_such_function", None, ("s",)),)
    tracer = tracing.Tracer(targets)
    with tracer:
        assert optimizer.project_to_base is not originals[0]
        assert optimizer.project_to_base is dataset.project_to_base
    assert (optimizer.project_to_base, dataset.project_to_base,
            optimizer.CorrespondenceSet.jacobian) == originals
    assert tracer.absent == ["gone.layer"]
    saved = matching.QUERY_WORKERS
    workload = SMOKE["rigid_pairs"]()
    workload.body = lambda inputs: setattr(matching, "QUERY_WORKERS", 1)
    run.run(workload, 1, 0.0, log=lambda line: None)
    assert matching.QUERY_WORKERS == saved


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer(())
    tracer.spans[:] = [["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0],
                       ["inner", 6.0, 7.0, 0]]
    totals = tracer.layer_totals()
    assert totals["outer"] == (1, 10.0, 6.0)
    assert totals["inner"] == (2, 4.0, 4.0)


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rigid_pairs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
