import numpy as np
import pytest

import kincal as kc
from kincal.errors import DimensionError, ExtrapolationError, ParseError

from conftest import assert_exact_frame_table, seven_joint_arm


def make_dataset(rng, rows=4, cols=5, joint_count=2, kind=kc.SensorKind.DEPTH_CAMERA):
    points = rng.uniform(-1, 1, (rows, cols, 3))
    valid = rng.uniform(size=(rows, cols)) > 0.2
    joints = rng.uniform(-np.pi, np.pi, (rows, cols, joint_count))
    return kc.ScanDataset(kind, points, valid, joints)


def test_shape_validation(rng):
    with pytest.raises(DimensionError):
        kc.ScanDataset(kc.SensorKind.DEPTH_CAMERA, np.zeros((2, 2, 2)),
                       np.ones((2, 2), dtype=bool), np.zeros((2, 2, 1)))
    with pytest.raises(DimensionError):
        kc.ScanDataset(kc.SensorKind.DEPTH_CAMERA, np.zeros((2, 2, 3)),
                       np.ones((3, 2), dtype=bool), np.zeros((2, 2, 1)))
    joints = np.zeros((2, 2, 1))
    joints[0, 0, 0] = np.nan
    with pytest.raises(DimensionError):
        kc.ScanDataset(kc.SensorKind.DEPTH_CAMERA, np.zeros((2, 2, 3)),
                       np.ones((2, 2), dtype=bool), joints)


def test_project_identity_model():
    points = np.arange(24, dtype=float).reshape(2, 4, 3)
    valid = np.ones((2, 4), dtype=bool)
    ds = kc.ScanDataset(kc.SensorKind.DEPTH_CAMERA, points, valid,
                        np.zeros((2, 4, 0)))
    model = kc.KinematicModel(kc.Segment(), (), kc.EESegment())
    proj = kc.project_to_base(ds, model)
    np.testing.assert_array_equal(proj.points, points)
    np.testing.assert_array_equal(proj.valid, valid)
    np.testing.assert_array_equal(proj.sensor_origins, np.zeros((2, 4, 3)))


def test_project_single_revolute_matches_fk_oracle():
    model = kc.KinematicModel(kc.Segment(joint=kc.JointKind.REVOLUTE), (),
                              kc.EESegment())
    points = np.array([[[0.0, 0.0, 1.0]]])
    joints = np.array([[[np.pi / 2]]])
    ds = kc.ScanDataset(kc.SensorKind.SINGLE_BEAM_LIDAR, points,
                        np.ones((1, 1), dtype=bool), joints)
    proj = kc.project_to_base(ds, model)
    expected = kc.forward_kinematics(model, [np.pi / 2]).apply(points[0, 0])
    np.testing.assert_allclose(proj.points[0, 0], expected, atol=1e-15)


def test_project_preserves_validity_and_grid(rng):
    ds = make_dataset(rng, joint_count=7)
    model = seven_joint_arm()
    proj = kc.project_to_base(ds, model)
    assert proj.points.shape == ds.points.shape
    np.testing.assert_array_equal(proj.valid, ds.valid)
    assert np.all(np.isnan(proj.points[~ds.valid]))
    assert np.all(np.isfinite(proj.points[ds.valid]))
    # every valid cell individually matches its own FK evaluation
    for i, j in zip(*np.nonzero(ds.valid)):
        pose = kc.forward_kinematics(model, ds.joints[i, j])
        np.testing.assert_allclose(proj.points[i, j], pose.apply(ds.points[i, j]),
                                   atol=1e-12)
        np.testing.assert_allclose(proj.sensor_origins[i, j], pose.translation,
                                   atol=1e-12)


def test_project_composability(rng):
    # rigidly transforming outputs == premultiplying the base segment
    ds = make_dataset(rng, joint_count=2)
    J = kc.JointKind.REVOLUTE
    model = kc.KinematicModel(kc.Segment(alpha=0.3, x=0.2, joint=J),
                              (kc.Segment(beta=0.4, x=0.3, joint=J),),
                              kc.EESegment(z=0.1))
    t = kc.static_segment_transform(kc.Segment(alpha=0.7, beta=-0.2, x=0.05, y=0.1))
    proj = kc.project_to_base(ds, model)
    moved = t.apply(proj.points[ds.valid])
    for k, (i, j) in enumerate(zip(*np.nonzero(ds.valid))):
        pose = t @ kc.forward_kinematics(model, ds.joints[i, j])
        np.testing.assert_allclose(moved[k], pose.apply(ds.points[i, j]),
                                   atol=1e-9)


def test_project_joint_arity_mismatch(rng):
    with pytest.raises(DimensionError):
        kc.project_to_base(make_dataset(rng, joint_count=3), seven_joint_arm())


def test_interpolate_joints():
    samples = [(0.0, [0.0, 10.0]), (1.0, [1.0, 20.0])]
    np.testing.assert_array_equal(kc.interpolate_joints(samples, 0.0), [0, 10])
    np.testing.assert_allclose(kc.interpolate_joints(samples, 0.25), [0.25, 12.5])
    samples = [(0.0, [2.0]), (0.4, [6.0])]
    np.testing.assert_allclose(kc.interpolate_joints(samples, 0.1), [3.0])
    with pytest.raises(ExtrapolationError):
        kc.interpolate_joints(samples, 0.5)
    with pytest.raises(ExtrapolationError):
        kc.interpolate_joints(samples, -0.1)
    np.testing.assert_allclose(kc.interpolate_joints(samples, [0.0, 0.1, 0.4]),
                               [[2.0], [3.0], [6.0]])
    with pytest.raises(ExtrapolationError, match="time 0.5 outside"):
        kc.interpolate_joints(samples, [0.1, 0.5, -1.0])


def test_found_frames_group_equal_joint_rows(rng):
    ds = make_dataset(rng, rows=6, cols=7, joint_count=2)
    choices = np.array([[0.5, -1.0], [0.5, 2.0], [-0.0, 0.0]])
    joints = choices[rng.integers(0, 3, ds.valid.shape)]
    joints[~ds.valid] = np.nan  # invalid cells need no joint vector
    ds = kc.ScanDataset(ds.kind, ds.points, ds.valid, joints)
    assert len(ds.frames.joints) == len(np.unique(joints[ds.valid][:, 1]))
    assert_exact_frame_table(ds)


def test_given_frame_table_must_match_the_joints(rng):
    ds = make_dataset(rng, joint_count=2)
    ids, rows = ds.frames
    kc.ScanDataset(ds.kind, ds.points, ds.valid, ds.joints, kc.FrameTable(ids, rows))
    shifted = np.where(ds.valid, (ids + 1) % len(rows), -1)
    unmarked = np.where(ds.valid, ids, 0)
    out_of_range = np.where(ds.valid, ids + len(rows), -1)
    for bad in ((shifted, rows), (unmarked, rows), (out_of_range, rows),
                (ids[:-1], rows), (ids, rows[:, :1])):
        with pytest.raises(DimensionError):
            kc.ScanDataset(ds.kind, ds.points, ds.valid, ds.joints,
                           kc.FrameTable(*bad))


def test_loaded_dataset_projects_like_the_simulated_one(tmp_path):
    model = seven_joint_arm()
    start = np.array([-2.2008, 0.7925, -2.2392, -0.3573, 1.7988, 2.4800, 1.6288])
    leg = kc.TrajectoryLeg(start, start + 0.3, 2.0)
    spec = kc.SensorSpec(kind=kc.SensorKind.SINGLE_BEAM_LIDAR, rows=16, cols=1,
                         fov_rows=1.0, fov_cols=0.0, min_range=0.1,
                         max_range=0.9, sample_rate=10.0)
    simulated = kc.simulate_dataset(kc.default_scene(), model, spec,
                                    kc.TrajectorySpec(legs=(leg,)), seed=4)
    assert simulated.valid.any() and not simulated.valid.all()
    kc.save_dataset(simulated, tmp_path / "ds")
    loaded = kc.load_dataset(tmp_path / "ds")
    assert_exact_frame_table(loaded)
    expected = kc.project_to_base(simulated, model)
    found = kc.project_to_base(loaded, model)
    np.testing.assert_array_equal(found.valid, expected.valid)
    np.testing.assert_array_equal(found.points, expected.points)
    np.testing.assert_array_equal(found.sensor_origins, expected.sensor_origins)


def test_dataset_roundtrip(tmp_path, rng):
    ds = make_dataset(rng, rows=3, cols=4, joint_count=2,
                      kind=kc.SensorKind.LINE_SCANNER)
    kc.save_dataset(ds, tmp_path / "ds")
    loaded = kc.load_dataset(tmp_path / "ds")
    assert loaded.kind == ds.kind
    np.testing.assert_array_equal(loaded.valid, ds.valid)
    np.testing.assert_array_equal(loaded.points, ds.points)
    np.testing.assert_array_equal(loaded.joints, ds.joints)


def test_empty_grid_roundtrip(tmp_path):
    ds = kc.ScanDataset(kc.SensorKind.DEPTH_CAMERA, np.zeros((0, 0, 3)),
                        np.zeros((0, 0), dtype=bool), np.zeros((0, 0, 1)))
    kc.save_dataset(ds, tmp_path / "empty")
    loaded = kc.load_dataset(tmp_path / "empty")
    assert loaded.rows == 0 and loaded.cols == 0 and loaded.joint_count == 1


def test_parse_error_names_row(tmp_path, rng):
    ds = make_dataset(rng, rows=2, cols=2, joint_count=2)
    kc.save_dataset(ds, tmp_path / "ds")
    joints_file = tmp_path / "ds" / "joints"
    lines = joints_file.read_text().splitlines()
    lines[2] = "1 0 0.5"  # wrong arity
    joints_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="joints:3"):
        kc.load_dataset(tmp_path / "ds")


def test_parse_error_cell_out_of_grid(tmp_path, rng):
    ds = make_dataset(rng, rows=2, cols=2, joint_count=1)
    kc.save_dataset(ds, tmp_path / "ds")
    points_file = tmp_path / "ds" / "points"
    points_file.write_text(points_file.read_text() + "5 0 1 0.0 0.0 0.0\n")
    with pytest.raises(ParseError, match=r"\(5, 0\)"):
        kc.load_dataset(tmp_path / "ds")


def edit_dataset_file(path, name, edit):
    file = path / name
    file.write_text(edit(file.read_text()))


@pytest.mark.parametrize("key", ["rows", "cols", "joint_count"])
def test_negative_meta_count_is_a_parse_error(tmp_path, rng, key):
    kc.save_dataset(make_dataset(rng, rows=2, cols=2), tmp_path / "ds")
    edit_dataset_file(tmp_path / "ds", "meta",
                      lambda text: text.replace(f"\n{key} 2", f"\n{key} -1"))
    with pytest.raises(ParseError, match=f"meta:\\d: {key} must not be negative"):
        kc.load_dataset(tmp_path / "ds")


def test_dataset_files_skip_comments_and_blank_lines(tmp_path, rng):
    ds = make_dataset(rng, rows=2, cols=3)
    kc.save_dataset(ds, tmp_path / "ds")
    for name in ("meta", "points", "joints"):
        edit_dataset_file(tmp_path / "ds", name,
                          lambda text: "# written by hand\n\n" + text.replace("\n", "\n  # cell\n", 1))
    loaded = kc.load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(loaded.valid, ds.valid)
    np.testing.assert_array_equal(loaded.points, ds.points)
    np.testing.assert_array_equal(loaded.joints, ds.joints)


@pytest.mark.parametrize("flag", ["7", "-1", "1.0", "true"])
def test_valid_flag_is_0_or_1(tmp_path, rng, flag):
    kc.save_dataset(make_dataset(rng, rows=2, cols=2), tmp_path / "ds")
    edit_dataset_file(tmp_path / "ds", "points",
                      lambda text: text.replace("\n1 0 1 ", f"\n1 0 {flag} ")
                                       .replace("\n1 0 0 ", f"\n1 0 {flag} "))
    with pytest.raises(ParseError, match=f"points:3: flag must be 0 or 1, got '{flag}'"):
        kc.load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("name", ["points", "joints"])
def test_repeated_cell_is_a_parse_error(tmp_path, rng, name):
    kc.save_dataset(make_dataset(rng, rows=2, cols=2), tmp_path / "ds")
    edit_dataset_file(tmp_path / "ds", name,
                      lambda text: text + text.splitlines()[1] + "\n")
    with pytest.raises(ParseError, match=f"{name}:5: cell \\(0, 1\\) is listed twice"):
        kc.load_dataset(tmp_path / "ds")
